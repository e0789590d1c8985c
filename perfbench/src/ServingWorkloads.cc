/**
 * @file
 * exact_hetero and overload_dispatch: stream::EventLoop runs of one
 * fixed-horizon stream, repeated on a warm cache for the length of
 * the timed phase (host_rps is their median), with a batch of
 * single-request executions (exec_ms) and one fresh set-up (setup_s)
 * between runs.  The traced run serves the stream once, replays its
 * compiles and first requests through the layers and probes the
 * dispatch layer.
 */

#include <map>

#include "Replay.hh"
#include "Serving.hh"
#include "Workloads.hh"
#include "util/Rng.hh"

namespace perfbench
{

using namespace aim;

namespace
{

struct ServingSize
{
    /** Requests per EventLoop run. */
    long horizon = 0;
    /** Single-request executions between two runs. */
    long execBatch = 0;
    /** Requests the traced run replays through the layers. */
    long replay = 0;
    /** Executor runs of the exec.speedup_2t batch. */
    long speedupBatch = 0;
    /** The workload's own dispatch probes (else matched ones). */
    bool probeDispatch = false;
    /** Models of the single-request executions, in cycle order.  A
     * fixed cycle keeps every model's share of the exec_ms samples
     * exact, and an odd cycle keeps the median inside one model's
     * mode instead of on the edge between two. */
    std::vector<std::string> execCycle;
};

Result
runServing(const Args &args, const stream::StreamConfig &scfg,
           const ServingSize &size)
{
    Result res;
    // Set-up: a cold cache compiling the mix's artifacts plus the
    // executors.  The timed phase repeats it once per iteration, so
    // setup_s / compile_s are medians over samples spread across the
    // run.
    HostSpeed speed;
    Samples setup_s, compile_s;
    const auto fresh_setup = [&]() {
        speed.sample();
        const auto t0 = Clock::now();
        auto fresh = std::make_unique<ServingSetup>(scfg);
        setup_s.add(secondsSince(t0), speed);
        compile_s.add(fresh->compileS, speed);
        speed.sample();
        return fresh;
    };
    const std::unique_ptr<ServingSetup> setup = fresh_setup();

    const auto check_run = [&](const stream::StreamReport &rep) {
        res.check("requests == admitted", rep.requests == rep.admitted);
        res.check("no request shed", rep.shed == 0);
        res.check("placementViolations == 0",
                  rep.placementViolations == 0);
        res.check("the set-up compiled every artifact the run uses",
                  rep.cacheMisses == 0);
        if (!setup->fleet.gangs.empty())
            res.check("gang dispatches happened", rep.gangDispatches > 0);
        res.attempted += rep.arrivals;
        res.failed += rep.arrivals - rep.requests;
    };

    if (!args.trace) {
        // The host cost of a short exact-service stream depends on
        // its chip-noise seed (it sets which requests the prefetch
        // executes together), so the runs cycle over kSubSeeds fleet
        // seeds derived from the workload seed; run r must reproduce
        // run r - kSubSeeds bit for bit.
        constexpr long kSubSeeds = 4;
        const uint64_t base = setup->scfg.fleet.seed;
        const auto sub_seed = [&](long k) {
            const uint64_t s =
                k == 0 ? base
                       : util::Rng(base)
                             .fork(static_cast<uint64_t>(k))
                             .next();
            return s != 0 ? s : 1;
        };
        Samples rps, exec_ms;
        std::map<std::string, std::vector<double>> by_model;
        std::vector<std::string> digests;
        long runs = 0;
        long execs = 0;
        const auto t0 = Clock::now();
        do {
            speed.nextSegment();
            speed.sample();
            const auto tr = Clock::now();
            const auto rep =
                serveOnce(*setup, 0, sub_seed(runs % kSubSeeds));
            rps.add(static_cast<double>(rep.requests) / secondsSince(tr),
                    speed);
            check_run(rep);
            Digest d;
            d.add(rep);
            digests.push_back(d.hex());
            if (runs >= kSubSeeds)
                res.check("EventLoop runs are deterministic for a seed",
                          d.hex() == digests[static_cast<size_t>(
                                         runs - kSubSeeds)]);
            for (long b = 0; b < size.execBatch; ++b, ++execs) {
                if (b % 5 == 0)
                    speed.sample();
                const auto &model = size.execCycle[static_cast<size_t>(
                    execs % static_cast<long>(size.execCycle.size()))];
                const auto q = setup->meta.annotate(
                    {execs, model, 0.0, 0.0}, setup->cache);
                const auto tk = Clock::now();
                const auto run =
                    setup->execute(q, setup->requestSeed(q.request.id));
                exec_ms.add(secondsSince(tk) * 1e3, speed);
                by_model[model].push_back(exec_ms.raw.back());
                ++res.attempted;
                if (!(run.wallTimeNs > 0.0 && run.usefulWindows > 0))
                    ++res.failed;
            }
            fresh_setup();
            ++runs;
        } while (secondsSince(t0) < args.seconds ||
                 runs < (args.tiny ? 2 : kSubSeeds + 1));
        std::string per_model;
        for (const auto &[model, ms] : by_model)
            per_model += " " + model + " " + std::to_string(median(ms));
        res.notes.push_back(
            "serving: " + std::to_string(runs) + " EventLoop runs of " +
            std::to_string(size.horizon) + " requests; exec samples: " +
            std::to_string(exec_ms.raw.size()) +
            " (raw median per model:" + per_model +
            "); set-up samples: " + std::to_string(setup_s.raw.size()));
        endToEnd(res, speed, setup_s, compile_s, exec_ms, rps);
        res.simDigest = digests.front();
        return res;
    }

    Tracer t;
    stream::StreamReport rep;
    {
        SpanScope s(t, "stream.run");
        rep = serveOnce(*setup);
    }
    check_run(rep);
    Digest digest;
    digest.add(rep);
    res.simDigest = digest.hex();

    // Compile replay of every single-chip artifact the set-up cached
    // (gang stages compile through shard::compileShardedSlots).
    for (const auto &mix : scfg.trace.mix) {
        const auto q = setup->meta.annotate(
            {0, mix.model, 0.0, mix.sloUs}, setup->cache);
        if (q.sharded)
            continue;
        const auto spec = workload::modelByName(mix.model);
        const size_t classes =
            std::max<size_t>(q.compiledByClass.size(), 1);
        for (size_t c = 0; c < classes; ++c) {
            const auto &art = q.compiledByClass.empty()
                                  ? q.compiled
                                  : q.compiledByClass[c];
            if (!art)
                continue;
            const auto pim = setup->pimOf(static_cast<int>(c));
            CompiledModel replayed;
            {
                SpanScope s(t, "aim.compile");
                replayed =
                    replayCompile(pim, spec, setup->fleet.options, t);
            }
            res.check("traced compile replay is bit-identical to the "
                      "cached artifact (" + mix.model + ")",
                      sameArtifact(replayed, *art));
            // Without the ISA path in the options, lowering the
            // artifact measures that layer on the workload's rounds.
            if (!setup->fleet.options.useIsa) {
                AimOptions isa_opts = setup->fleet.options;
                isa_opts.useIsa = true;
                isa_opts.isaSchedule = true;
                replayLower(pim, isa_opts, t, replayed);
            }
        }
    }

    long windows = 0;
    long replayed = 0;
    const double untraced_us =
        serveReplay(*setup, size.replay, t, res, &windows, &replayed);
    res.set("sim.windows",
            static_cast<double>(windows) /
                static_cast<double>(std::max<long>(replayed, 1)),
            "count", replayed, "replay, windows per request");
    execSpeedup(*setup, size.speedupBatch, res, "replay");
    if (size.probeDispatch) {
        probeDispatch(*setup, t, res);
        costGrowth(*setup, size.horizon, res, "replay");
    }
    const auto &cache = setup->cache;
    res.set("serve.cache_hit_ratio",
            static_cast<double>(cache.hits()) /
                static_cast<double>(cache.hits() + cache.misses()),
            "ratio", cache.hits() + cache.misses(),
            "replay, hits / lookups incl. set-up compiles");
    layerMetrics(res, t, "replay");
    finishTrace(args, t, res, "aim.execute", untraced_us);
    return res;
}

} // namespace

Result
runExactHetero(const Args &args)
{
    ServingSize size;
    size.horizon = args.tiny ? 6 : 32;
    size.execBatch = args.tiny ? 3 : 15;
    size.replay = args.tiny ? 4 : 9;
    size.speedupBatch = args.tiny ? 2 : 8;
    size.execCycle = {"ResNet18", "GPT2", "MobileNetV2"};
    return runServing(args,
                      heteroConfig(args.seed, size.horizon, args.threads),
                      size);
}

Result
runOverloadDispatch(const Args &args)
{
    ServingSize size;
    size.horizon = args.tiny ? 2'000 : 40'000;
    size.execBatch = args.tiny ? 3 : 33;
    size.replay = args.tiny ? 4 : 24;
    size.speedupBatch = args.tiny ? 4 : 32;
    size.probeDispatch = true;
    size.execCycle = {"ResNet18", "MobileNetV2", "ResNet18"};
    return runServing(
        args, overloadConfig(args.seed, size.horizon, args.threads),
        size);
}

} // namespace perfbench
