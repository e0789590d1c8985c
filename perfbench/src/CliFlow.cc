/**
 * @file
 * cli_flow: the researcher's aim_cli flow.  Set-up cold-compiles the
 * conv model set under the default AIM options (LHR QAT, WDS,
 * HR-aware mapper, Analytic droop, booster on); the timed phase runs
 * seeded AimPipeline::execute requests round-robin over the models.
 * The traced run replays the compiles and the first requests through
 * the layer calls and checks both bit-identical to the library calls.
 */

#include "Replay.hh"
#include "Workloads.hh"
#include "isa/Engine.hh"
#include "util/Rng.hh"

namespace perfbench
{

using namespace aim;

namespace
{

const std::vector<std::string> kModels = {"ResNet18", "MobileNetV2",
                                          "YOLOv5"};

struct CliRequest
{
    size_t model = 0;
    uint64_t seed = 1;
};

/** Request @p k of the seed's stream: round-robin models, seeded
 * runtime noise. */
CliRequest
request(uint64_t seed, long k)
{
    uint64_t s =
        util::Rng(seed).fork(static_cast<uint64_t>(k) + 1).next();
    return {static_cast<size_t>(k) % kModels.size(), s != 0 ? s : 1};
}

} // namespace

Result
runCliFlow(const Args &args)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const AimOptions opts; // the AIM defaults aim_cli runs
    const AimPipeline pipe(cfg, cal);
    Result res;

    // Set-up: cold compiles of the model set in a fresh pipeline.  The
    // timed phase repeats it after every execute batch, so setup_s and
    // compile_s are medians over samples spread across the run.
    HostSpeed speed;
    Samples setup_s, compile_s;
    const auto compile_cold = [&]() {
        speed.sample();
        const auto t0 = Clock::now();
        const AimPipeline fresh(cfg, cal);
        std::vector<CompiledModel> built;
        double compile = 0.0;
        for (const auto &name : kModels) {
            const auto spec = workload::modelByName(name);
            const auto tc = Clock::now();
            built.push_back(fresh.compile(spec, opts));
            compile += secondsSince(tc);
        }
        setup_s.add(secondsSince(t0), speed);
        compile_s.add(compile, speed);
        speed.sample();
        return built;
    };
    const std::vector<CompiledModel> artifacts = compile_cold();

    // The digest covers the first requests of the stream: fixed work
    // for a seed, whatever the host speed.
    const long digest_n = args.tiny ? 3 : 30;
    Digest digest;

    if (!args.trace) {
        const long min_n = args.tiny ? 6 : 100;
        const long batch = args.tiny ? 3 : 60;
        const size_t min_setups = args.tiny ? 1 : 4;
        Samples exec_ms, host_rps;
        sim::RunReport first;
        long k = 0;
        const auto t0 = Clock::now();
        while (k < min_n || secondsSince(t0) < args.seconds ||
               setup_s.raw.size() < min_setups) {
            speed.nextSegment();
            double busy_s = 0.0;
            for (long b = 0; b < batch; ++b, ++k) {
                if (b % 10 == 0)
                    speed.sample();
                const auto req = request(args.seed, k);
                const auto tk = Clock::now();
                const AimReport rep =
                    pipe.execute(artifacts[req.model], req.seed);
                const double s = secondsSince(tk);
                busy_s += s;
                exec_ms.add(s * 1e3, speed);
                const bool sane = rep.run.wallTimeNs > 0.0 &&
                                  rep.run.tops > 0.0 &&
                                  rep.run.usefulWindows > 0;
                res.failed += sane ? 0 : 1;
                if (k < digest_n)
                    digest.add(rep.run);
                if (k == 0)
                    first = rep.run;
            }
            host_rps.add(static_cast<double>(batch) / busy_s, speed);
            const auto rebuilt = compile_cold();
            for (size_t i = 0; i < rebuilt.size(); ++i)
                res.check("compile is deterministic across set-ups",
                          sameArtifact(rebuilt[i], artifacts[i]));
        }
        res.attempted = static_cast<long>(exec_ms.raw.size());
        res.check("every execute produced a sane report",
                  res.failed == 0);
        const auto r0 = request(args.seed, 0);
        res.check("execute is deterministic for a seed",
                  sameReport(pipe.execute(artifacts[r0.model], r0.seed)
                                 .run,
                             first));
        res.notes.push_back("exec samples: " +
                            std::to_string(exec_ms.raw.size()) +
                            " executes (p90 has " +
                            std::to_string(exec_ms.raw.size() / 10) +
                            " beyond it); set-up samples: " +
                            std::to_string(setup_s.raw.size()));
        endToEnd(res, speed, setup_s, compile_s, exec_ms, host_rps);
        res.simDigest = digest.hex();
        return res;
    }

    // ---- traced replay ------------------------------------------
    Tracer t;
    for (size_t i = 0; i < kModels.size(); ++i) {
        CompiledModel replayed;
        {
            SpanScope s(t, "aim.compile");
            replayed = replayCompile(
                cfg, workload::modelByName(kModels[i]), opts, t);
        }
        res.check("traced compile replay is bit-identical to "
                  "AimPipeline::compile (" + kModels[i] + ")",
                  sameArtifact(replayed, artifacts[i]));
    }
    // The workload executes on the round runtime; lowering its
    // artifacts measures the ISA path on the same rounds.
    AimOptions isa_opts = opts;
    isa_opts.useIsa = true;
    isa_opts.isaSchedule = true;
    std::vector<CompiledModel> lowered = artifacts;
    for (auto &artifact : lowered)
        replayLower(cfg, isa_opts, t, artifact);

    double untraced_us = 0.0;
    long windows = 0;
    for (long k = 0; k < digest_n; ++k) {
        const auto req = request(args.seed, k);
        const CompiledModel &artifact = artifacts[req.model];
        sim::RunConfig rcfg = runConfigFor(opts);
        rcfg.seed = req.seed;
        AimReport ref;
        sim::RunReport rep;
        const auto untraced = [&] {
            const auto tu = Clock::now();
            ref = pipe.execute(artifact, req.seed);
            untraced_us += secondsSince(tu) * 1e6;
        };
        const auto traced = [&] {
            rep = replayExecute(cfg, cal, rcfg, artifact, t, k, &windows);
        };
        // Alternate the order so neither side always runs warm.
        if (k % 2 == 0) {
            untraced();
            traced();
        } else {
            traced();
            untraced();
        }
        res.check("traced execute replay is bit-identical to "
                  "AimPipeline::execute",
                  sameReport(rep, ref.run));
        digest.add(rep);

        if (k < 3) {
            const sim::Runtime runtime(cfg, cal, rcfg);
            const isa::Engine engine(cfg, cal, rcfg);
            const auto &prog = lowered[req.model];
            sim::RunReport rt, er;
            {
                SpanScope s(t, "sim.runtime", k);
                rt = runtime.run(artifact.rounds, artifact.stream,
                                 req.seed);
            }
            {
                SpanScope s(t, "isa.engine", k);
                er = engine
                         .run(*prog.program, prog.stream, req.seed,
                              nullptr, nullptr, prog.schedule.get())
                         .run;
            }
            res.check("Runtime::run and isa::Engine::run match the "
                      "replay",
                      sameReport(rt, rep) && sameReport(er, rep));
        }
    }
    res.attempted = digest_n;
    res.set("sim.windows",
            static_cast<double>(windows) / static_cast<double>(digest_n),
            "count", digest_n, "replay, windows per request");
    layerMetrics(res, t, "replay");
    res.simDigest = digest.hex();
    finishTrace(args, t, res, "aim.execute", untraced_us);
    return res;
}

} // namespace perfbench
