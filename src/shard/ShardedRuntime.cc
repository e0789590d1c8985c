#include "shard/ShardedRuntime.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "exec/ExecPool.hh"
#include "sim/Runtime.hh"
#include "util/Logging.hh"
#include "util/Table.hh"

namespace aim::shard
{

std::string
validateShardRuntimeConfig(const ShardRuntimeConfig &cfg)
{
    if (cfg.microBatches < 1)
        return util::detail::concat(
            "microBatches must be at least 1, got ",
            cfg.microBatches);
    if (cfg.threads < 0)
        return util::detail::concat(
            "threads must be non-negative (0 = hardware "
            "concurrency), got ",
            cfg.threads);
    return validateInterconnectConfig(cfg.interconnect);
}

double
ShardedModel::scaledMacs() const
{
    double macs = 0.0;
    for (size_t s = 0; s < stages.size(); ++s)
        macs += stages[s].scaledMacs() * plan.stages[s].ways;
    return macs;
}

ShardedModel
compileSharded(const AimPipeline &pipe,
               const workload::ModelSpec &model,
               const AimOptions &opts, const PartitionConfig &pcfg)
{
    Partitioner partitioner(pcfg);
    ShardedModel out;
    out.plan = partitioner.partition(model);
    out.options = opts;
    out.stages.reserve(out.plan.stages.size());
    for (const auto &stage : out.plan.stages)
        out.stages.push_back(pipe.compile(stage.subModel, opts));
    return out;
}

ShardedModel
compileShardedSlots(const workload::ModelSpec &model,
                    const AimOptions &opts,
                    const PartitionConfig &pcfg,
                    const std::vector<pim::PimConfig> &slotPim,
                    const std::vector<power::Calibration> &slotCal)
{
    aim_assert(slotPim.size() == slotCal.size(),
               "slot geometry/calibration lists disagree: ",
               slotPim.size(), " vs ", slotCal.size());
    Partitioner partitioner(pcfg);
    ShardedModel out;
    out.plan = partitioner.partition(model);
    out.options = opts;
    aim_assert(static_cast<size_t>(out.plan.totalChips()) <=
                   slotPim.size(),
               "plan occupies ", out.plan.totalChips(),
               " slots but only ", slotPim.size(),
               " slot environments were supplied");
    out.stages.reserve(out.plan.stages.size());
    size_t slot = 0;
    for (const auto &stage : out.plan.stages) {
        const AimPipeline pipe(slotPim[slot], slotCal[slot]);
        out.stages.push_back(pipe.compile(stage.subModel, opts));
        slot += static_cast<size_t>(stage.ways);
    }
    return out;
}

ShardedRuntime::ShardedRuntime(const pim::PimConfig &cfg,
                               const power::Calibration &cal,
                               const ShardRuntimeConfig &rcfg)
    : cfg(cfg), cal(cal), rcfg(rcfg)
{
    const std::string problem = validateShardRuntimeConfig(rcfg);
    if (!problem.empty())
        aim_fatal("invalid ShardRuntimeConfig: ", problem);
}

ShardReport
ShardedRuntime::execute(const ShardedModel &sharded,
                        uint64_t seed) const
{
    return execute(sharded, seed, nullptr);
}

ShardReport
ShardedRuntime::execute(const ShardedModel &sharded, uint64_t seed,
                        const std::vector<StageEnv> *stageEnvs) const
{
    const size_t S = sharded.stages.size();
    aim_assert(!stageEnvs || stageEnvs->size() == S,
               "stage environments must match the stage count: ",
               stageEnvs ? stageEnvs->size() : 0, " for ", S);
    // With stage environments every stage simulates on its member's
    // chip; the homogeneous path shares one runtime on the
    // constructor environment.
    std::vector<sim::Runtime> built;
    if (stageEnvs) {
        built.reserve(S);
        for (const auto &env : *stageEnvs)
            built.emplace_back(env.cfg, env.cal, env.rcfg);
    } else {
        built.emplace_back(cfg, cal, runConfigFor(sharded.options));
    }
    std::vector<const sim::Runtime *> stageRt;
    for (size_t s = 0; s < S; ++s)
        stageRt.push_back(&built[stageEnvs ? s : 0]);
    return execute(sharded, seed, stageRt);
}

ShardReport
ShardedRuntime::execute(
    const ShardedModel &sharded, uint64_t seed,
    const std::vector<const sim::Runtime *> &stageRuntimes,
    exec::ExecPool *pool) const
{
    const int S = static_cast<int>(sharded.stages.size());
    const int M = rcfg.microBatches;
    aim_assert(S >= 1, "sharded model has no stages");
    aim_assert(static_cast<int>(stageRuntimes.size()) == S,
               "stage runtimes must match the stage count: ",
               stageRuntimes.size(), " for ", S);

    ShardReport rep;
    rep.modelName = sharded.plan.modelName;
    rep.backend = sharded.options.irBackend;
    rep.stages = S;
    rep.chips = sharded.totalChips();
    rep.microBatches = M;
    rep.stageImbalance = sharded.plan.imbalance();

    // A micro-batch executes 1/M of the request's spatial work:
    // derive per-stage micro-rounds by scaling task MACs (with the
    // same one-pass floor the compiler's workScale pass applies), so
    // every grid cell simulates -- and accounts -- exactly the work
    // it represents.
    std::vector<std::vector<sim::Round>> microRounds(
        static_cast<size_t>(S));
    for (int s = 0; s < S; ++s) {
        const long floor = stageRuntimes[static_cast<size_t>(s)]
                               ->environment()
                               .cfg.macsPerMacroPerPass();
        microRounds[static_cast<size_t>(s)] =
            sharded.stages[static_cast<size_t>(s)].rounds;
        if (M > 1)
            for (auto &round : microRounds[static_cast<size_t>(s)])
                for (auto &task : round.tasks)
                    task.macs =
                        std::max<long>(task.macs / M, floor);
    }

    // Execute the (stage, micro-batch) grid.  Each cell is a pure
    // function of (stage artifact, index-derived seed): which worker
    // computes it cannot change its bits, so the pipeline replay
    // below is deterministic at any thread count.
    std::vector<sim::RunReport> grid(
        static_cast<size_t>(S) * static_cast<size_t>(M));
    std::optional<exec::ExecPool> own;
    if (!pool)
        pool = &own.emplace(rcfg.threads);
    pool->parallelFor(
        static_cast<long>(grid.size()), [&](long i) {
            const auto s = static_cast<size_t>(i / M);
            grid[static_cast<size_t>(i)] = stageRuntimes[s]->run(
                microRounds[s], sharded.stages[s].stream,
                exec::ExecPool::taskSeed(seed, i));
        });

    const InterconnectModel link(rcfg.interconnect);
    auto cellUs = [&](int s, int m) {
        return grid[static_cast<size_t>(s) * M + m].wallTimeNs /
               1000.0;
    };

    // Serial pipeline replay (GPipe fill/steady/drain).  finish[s]
    // tracks stage s's completion of the previous micro-batch;
    // ready[m] the time micro-batch m's input reaches the next stage.
    std::vector<double> stageFinish(S, 0.0);
    std::vector<double> ready(M, 0.0); // input available at stage s
    rep.stageComputeUs.assign(S, 0.0);
    // Activation traffic scales with the simulated work fraction:
    // compiled rounds carry workScale of the inference's MACs, so a
    // stage boundary carries workScale of its activations -- keeping
    // compute and link time in the same (scaled) time base.
    const double workScale = sharded.options.workScale;
    for (int s = 0; s < S; ++s) {
        const auto &stage = sharded.plan.stages[s];
        const long exitScaled = static_cast<long>(
            static_cast<double>(stage.exitActivations) * workScale);
        const long exitPerMicro = (exitScaled + M - 1) / M;
        const double gatherUs =
            stage.ways > 1
                ? link.allGatherUs(exitPerMicro, stage.ways)
                : 0.0;
        const double xferUs =
            s + 1 < S ? link.transferUs(exitPerMicro) : 0.0;
        for (int m = 0; m < M; ++m) {
            const double compute = cellUs(s, m);
            const double start =
                std::max(stageFinish[s], ready[m]);
            const double done = start + compute + gatherUs;
            stageFinish[s] = done;
            ready[m] = done + xferUs;
            rep.stageComputeUs[static_cast<size_t>(s)] += compute;
            rep.computeUs += compute * stage.ways;
            rep.totalMacs +=
                grid[static_cast<size_t>(s) * M + m].totalMacs *
                stage.ways;
            // Collectives busy every member chip's link; the
            // stage-boundary transfer busies the sending link once.
            rep.interconnectUs += gatherUs * stage.ways + xferUs;
        }
    }
    rep.makespanUs = stageFinish[S - 1];

    const double chipTime = rep.makespanUs * rep.chips;
    if (chipTime > 0.0) {
        rep.interconnectFraction = rep.interconnectUs / chipTime;
        rep.bubbleFraction =
            1.0 - (rep.computeUs + rep.interconnectUs) / chipTime;
        rep.bubbleFraction = std::max(rep.bubbleFraction, 0.0);
    }

    rep.merged = sim::mergeReports(grid);
    return rep;
}

std::string
ShardReport::render() const
{
    std::ostringstream os;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s [%s droop]: %d stage%s on %d chip%s, "
                  "%d micro-batch%s, makespan %.2f ms\n",
                  modelName.c_str(),
                  power::irBackendName(backend), stages,
                  stages == 1 ? "" : "s", chips,
                  chips == 1 ? "" : "s", microBatches,
                  microBatches == 1 ? "" : "es", makespanUs / 1e3);
    os << line;
    std::snprintf(line, sizeof(line),
                  "bubble %.1f%%  interconnect %.1f%%  imbalance "
                  "%.1f%%  IRFailures %ld  stalls %ld\n",
                  bubbleFraction * 100.0,
                  interconnectFraction * 100.0,
                  stageImbalance * 100.0, merged.failures,
                  merged.stallWindows);
    os << line;
    util::Table t("per-stage compute (one request)");
    t.setHeader({"stage", "compute ms", "share %"});
    for (size_t s = 0; s < stageComputeUs.size(); ++s)
        t.addRow({std::to_string(s),
                  util::Table::fmt(stageComputeUs[s] / 1e3, 2),
                  util::Table::pct(
                      computeUs > 0.0
                          ? stageComputeUs[s] / computeUs
                          : 0.0)});
    os << t.render();
    return os.str();
}

} // namespace aim::shard
