/**
 * @file
 * Matched-input probes of the traced run.  Their inputs do not depend
 * on the workload or its seed, so their figures compare across
 * workloads and runs; each probe only runs when the workload's own
 * replay left one of its figures unmeasured.
 */

#include <cstdio>

#include "Replay.hh"
#include "Serving.hh"
#include "Workloads.hh"
#include "power/PdnMesh.hh"
#include "power/TransientBackend.hh"

namespace perfbench
{

using namespace aim;

namespace
{

constexpr uint64_t kMatchedSeed = 1;

/** Windows/s of the three droop backends on exact_hetero's GPT2
 * big-SKU artifact with one seed (sim.kwin_per_s.*). */
void
backendTable(const Args &args, Tracer &t, Result &res)
{
    const auto scfg = heteroConfig(kMatchedSeed, 16, args.threads);
    const serve::ChipSku sku = serve::bigSku();
    const AimPipeline pipe(sku.pim, sku.cal);
    const CompiledModel art =
        pipe.compile(workload::modelByName("GPT2"), scfg.fleet.options);
    const uint64_t seed = 0x9a7c5eedULL;
    const power::IrBackendKind kinds[] = {power::IrBackendKind::Analytic,
                                          power::IrBackendKind::Mesh,
                                          power::IrBackendKind::Transient};
    std::vector<std::unique_ptr<const sim::Runtime>> runtimes;
    std::vector<sim::RunReport> replayed;
    std::vector<long> windows;
    for (const auto kind : kinds) {
        AimOptions opts = scfg.fleet.options;
        opts.irBackend = kind;
        sim::RunConfig rcfg = serve::runConfigForSku(opts, sku);
        rcfg.seed = seed;
        const sim::RuntimeEnv env(sku.pim, sku.cal, rcfg);
        windows.push_back(0);
        replayed.push_back(replayRun(env, art.rounds, art.stream, seed, t,
                                     -1, &windows.back()));
        runtimes.push_back(
            std::make_unique<const sim::Runtime>(sku.pim, sku.cal, rcfg));
    }
    // The backends take turns within each repetition, so a slow
    // stretch of a shared host hits all three alike.
    std::vector<double> walls[3];
    for (int r = 0; r < (args.tiny ? 1 : 9); ++r)
        for (size_t b = 0; b < 3; ++b) {
            const auto t0 = Clock::now();
            const auto rep = runtimes[b]->run(art.rounds, art.stream, seed);
            walls[b].push_back(secondsSince(t0));
            res.check("Runtime::run matches the replay on the matched "
                      "artifact",
                      sameReport(rep, replayed[b]));
        }
    std::string table = "matched kwin/s (GPT2 on the big SKU, seed " +
                        std::to_string(seed) + "):";
    double analytic = 0.0;
    for (size_t b = 0; b < 3; ++b) {
        const double kwin =
            static_cast<double>(windows[b]) / median(walls[b]) / 1e3;
        const std::string name = power::irBackendName(kinds[b]);
        res.set("sim.kwin_per_s." + name, kwin, "kwin/s",
                static_cast<long>(walls[b].size()),
                "matched, " + std::to_string(windows[b]) + " windows");
        if (b == 0)
            analytic = kwin;
        char cell[96];
        std::snprintf(cell, sizeof cell, " %s %.1f (%.1f%% of analytic)",
                      name.c_str(), kwin, 100.0 * kwin / analytic);
        table += cell;
    }
    if (!res.has("sim.windows"))
        res.set("sim.windows", static_cast<double>(windows[0]), "count",
                1, "matched, windows per request");
    res.notes.push_back(table);
}

/** One backward-Euler step of the transient backend's PDN mesh under
 * an alternating quadrant load step (power.transient_step_us). */
void
transientStep(Tracer &t, Result &res)
{
    const auto cal = power::defaultCalibration();
    power::IrBackendConfig bcfg;
    bcfg.kind = power::IrBackendKind::Transient;
    const auto backend = power::makeIrBackend(bcfg, cal);
    const auto *tb =
        dynamic_cast<const power::TransientBackend *>(backend.get());
    if (!res.check("transient backend is a TransientBackend", tb))
        return;
    power::PdnMesh mesh(tb->transientConfig());
    const power::IrModel ir(cal);
    const double full = ir.demandCurrentA(
        ir.dynamicDropMv(cal.vddNominal, cal.fNominal, 1.0));
    const int n = mesh.config().size;
    mesh.addBlockLoad(0, 0, n, n, 0.5 * full);
    auto state = mesh.transientInit(mesh.solve());
    for (int i = 0; i < 256; ++i) {
        mesh.addBlockLoad(0, 0, n / 2, n / 2,
                          (i % 2 == 0 ? 0.25 : -0.25) * full);
        SpanScope s(t, "power.transient_step");
        mesh.stepTransient(tb->dtSec(), state);
    }
}

bool
missing(const Result &res, std::initializer_list<const char *> names)
{
    for (const char *n : names)
        if (!res.has(n))
            return true;
    return false;
}

} // namespace

void
runMatchedProbes(const Args &args, Tracer &t, Result &res)
{
    if (missing(res, {"sim.kwin_per_s.analytic", "power.droop_ns.analytic",
                      "power.droop_ns.transient",
                      "power.new_eval_us.transient"}))
        backendTable(args, t, res);
    if (missing(res, {"power.transient_step_us"}))
        transientStep(t, res);
    if (missing(res, {"serve.exec_ms", "shard.exec_ms", "sim.env_us",
                      "isa.engine_ms", "exec.speedup_2t",
                      "serve.cache_hit_ratio"})) {
        ServingSetup setup(heteroConfig(kMatchedSeed, 16, args.threads));
        long windows = 0;
        long replayed = 0;
        serveReplay(setup, args.tiny ? 4 : 9, t, res, &windows,
                    &replayed);
        if (!res.has("exec.speedup_2t"))
            execSpeedup(setup, args.tiny ? 2 : 8, res, "matched");
        if (!res.has("serve.cache_hit_ratio"))
            res.set("serve.cache_hit_ratio",
                    static_cast<double>(setup.cache.hits()) /
                        static_cast<double>(setup.cache.hits() +
                                            setup.cache.misses()),
                    "ratio", setup.cache.hits() + setup.cache.misses(),
                    "matched, hits / lookups incl. set-up compiles");
    }
    if (missing(res, {"serve.pick_us.d16k", "stream.cost_growth"})) {
        const long horizon = args.tiny ? 2'000 : 40'000;
        ServingSetup setup(
            overloadConfig(kMatchedSeed, horizon, args.threads));
        probeDispatch(setup, t, res);
        if (!res.has("stream.cost_growth"))
            costGrowth(setup, horizon, res, "matched");
    }
}

} // namespace perfbench
