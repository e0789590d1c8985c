/**
 * @file
 * Sharded-serving benchmark: scales an 8B-parameter-class model
 * (workload::llama3_8b, ~7e9 weight elements -- far beyond one
 * 64-macro chip) across 1..8-chip gangs and reports what the
 * sharding layer buys and costs.
 *
 *  (a) partition sweep -- compileSharded + ShardedRuntime at 1, 2,
 *      4 and 8 chips: stage/TP shape, per-request pipeline makespan,
 *      effective TOPS, pipeline-bubble fraction, interconnect
 *      overhead fraction and compute imbalance.
 *  (b) fleet gang serving -- an 8-chip fleet on stream::EventLoop
 *      with a 4-chip gang rule for Llama3-8B serves a mixed 8B +
 *      ResNet18 trace end-to-end through the ModelCache (sharded
 *      artifacts cached like any other), demonstrating chip-group
 *      dispatch.
 *
 * Usage: bench_shard_scaling [--threads N] [--smoke]
 * --smoke trims the sweep (1 and 4 chips, 2 micro-batches, fewer
 * requests) for CI; the full run defaults to 4 micro-batches.
 */

#include <cstring>

#include "BenchCommon.hh"
#include "exec/ExecPool.hh"
#include "shard/ShardedRuntime.hh"
#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::bench;

int
main(int argc, char **argv)
{
    const int threads =
        exec::ExecPool::stripThreadsFlag(argc, argv, 0);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    banner("shard-scaling",
           "8B-scale model across 1..8-chip gangs");

    pim::PimConfig chip;
    const auto cal = power::defaultCalibration();
    AimPipeline pipeline(chip, cal);

    AimOptions opts;
    opts.useLhr = false; // offline flow in ms; chips are the story
    opts.workScale = smoke ? 0.01 : 0.02;
    // Layout-level droop: gang members map different stages, so the
    // mesh's per-window PDN re-solve sees each member's footprint.
    opts.irBackend = power::IrBackendKind::Mesh;

    const auto model = workload::llama3_8b();
    std::printf("model: %s, %.1f GMACs, %.2f B weights "
                "(one chip holds %.2f M elements resident)\n\n",
                model.name.c_str(), model.totalMacs() / 1e9,
                model.totalWeights() / 1e9,
                static_cast<double>(chip.macros()) *
                    chip.macsPerMacroPerPass() / 1e6);

    // ---- (a) partition sweep --------------------------------------
    shard::ShardRuntimeConfig scfg;
    scfg.microBatches = smoke ? 2 : 4;
    scfg.threads = threads;
    const std::vector<int> gangSizes =
        smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

    util::Table sweep("pipeline/tensor sharding of one request "
                      "(simulated time)");
    sweep.setHeader({"chips", "stages", "tp", "makespan ms",
                     "eff TOPS", "bubble %", "interconn %",
                     "imbal %"});
    double oneChipMs = 0.0;
    for (const int chips : gangSizes) {
        shard::PartitionConfig pcfg;
        pcfg.chips = chips;
        const auto sharded =
            shard::compileSharded(pipeline, model, opts, pcfg);
        const shard::ShardedRuntime runtime(chip, cal, scfg);
        const auto rep = runtime.execute(sharded, 101);
        int tpChips = 0;
        for (const auto &stage : sharded.plan.stages)
            if (stage.ways > 1)
                tpChips += stage.ways;
        const double fullMs =
            rep.makespanUs / opts.workScale / 1e3;
        if (chips == 1)
            oneChipMs = fullMs;
        // Effective TOPS over the request: 2 ops/MAC, scaled macs
        // over scaled makespan (workScale cancels).
        const double tops =
            2.0 * rep.totalMacs / rep.makespanUs / 1e6;
        sweep.addRow({std::to_string(chips),
                      std::to_string(rep.stages),
                      std::to_string(tpChips),
                      util::Table::fmt(fullMs, 1),
                      util::Table::fmt(tops, 1),
                      util::Table::pct(rep.bubbleFraction),
                      util::Table::pct(rep.interconnectFraction),
                      util::Table::pct(rep.stageImbalance)});
        if (chips == gangSizes.back()) {
            std::printf("%s\n", rep.render().c_str());
            std::printf("latency vs single chip: %.2fx at %d "
                        "chips\n\n",
                        oneChipMs > 0.0 ? oneChipMs / fullMs : 0.0,
                        chips);
        }
    }
    sweep.print();

    // ---- (b) fleet gang serving end-to-end ------------------------
    const int fleetChips = smoke ? 5 : 8;
    const int gangChips = 4;
    stream::StreamConfig serving;
    serve::FleetConfig &fcfg = serving.fleet;
    fcfg.chips = fleetChips;
    fcfg.policy = serve::SchedPolicy::Fcfs;
    fcfg.options = opts;
    fcfg.threads = threads;
    serve::GangSpec gang;
    gang.model = model.name;
    gang.partition.chips = gangChips;
    gang.microBatches = scfg.microBatches;
    fcfg.gangs = {gang};
    serve::ModelCache cache(pipeline);

    serve::TraceConfig &tcfg = serving.trace;
    tcfg.arrivals = serve::ArrivalKind::Poisson;
    tcfg.meanRatePerSec = 400.0;
    tcfg.requests = smoke ? 6 : 16;
    tcfg.seed = 515;
    tcfg.mix = {{model.name, 0.5, 0.0}, {"ResNet18", 0.5, 2000.0}};

    std::printf("\nfleet: %d chips, %d-chip gang for %s, %ld-request "
                "mixed trace\n",
                fleetChips, gangChips, model.name.c_str(),
                tcfg.requests);
    const auto rep = stream::EventLoop(chip, cal, serving).run(cache);
    std::printf("%s\n", rep.render().c_str());
    std::printf("model cache: %ld misses, %ld hits, %ld artifacts "
                "(sharded artifacts cached alongside plain)\n",
                cache.misses(), cache.hits(),
                static_cast<long>(cache.size()));

    const bool servedGangs = rep.gangDispatches > 0;
    std::printf("gang dispatches: %ld %s\n", rep.gangDispatches,
                servedGangs ? "PASS" : "FAIL");
    return servedGangs ? 0 : 1;
}
