#include "sim/Runtime.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "exec/ExecPool.hh"
#include "sim/ChipState.hh"
#include "sim/WindowKernel.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"
#include "util/Stats.hh"

namespace aim::sim
{

double
RunReport::utilization() const
{
    const long total = usefulWindows + stallWindows;
    if (total == 0)
        return 1.0;
    return static_cast<double>(usefulWindows) /
           static_cast<double>(total);
}

double
RunReport::topsPerWatt(int active_macros) const
{
    const double watts =
        macroPowerMw * std::max(active_macros, 1) / 1000.0;
    return watts > 0.0 ? tops / watts : 0.0;
}

RuntimeEnv::RuntimeEnv(const pim::PimConfig &cfg,
                       const power::Calibration &cal,
                       const RunConfig &rcfg)
    : cfg(cfg), cal(cal), rcfg(rcfg), table(cal), pm(cal)
{
    // Timing thresholds per grid frequency: the table bisected each
    // one once at construction.
    const auto &vmin = table.gridVMinTiming();
    for (size_t i = 0; i < vmin.size(); ++i)
        vminByF[cal.fGrid[i]] = vmin[i];

    recomputeStall = std::max<long>(
        1, (cal.recomputePenaltyCycles + cfg.inputBits - 1) /
               cfg.inputBits);
    switchStall = std::max<long>(
        1, (cal.vfSwitchPenaltyCycles + cfg.inputBits - 1) /
               cfg.inputBits);

    power::IrBackendConfig bcfg;
    bcfg.kind = rcfg.irBackend;
    bcfg.groups = cfg.groups;
    bcfg.macrosPerGroup = cfg.macrosPerGroup;
    bcfg.transientDecapNf = rcfg.transientDecapNf;
    bcfg.transientDtNs = rcfg.transientDtNs;
    bcfg.transientBumpPh = rcfg.transientBumpPh;
    bcfg.windowCycles = cfg.inputBits;
    backend = power::makeIrBackend(bcfg, cal);
}

void
finalizeRoundReport(const ChipState &state, const WindowStats &stats,
                    const RuntimeEnv &env, RunReport &rep)
{
    for (const auto &ss : state.sets)
        rep.wallTimeNs = std::max(rep.wallTimeNs, ss.wallNs);
    double energy = 0.0;
    for (const auto &gs : state.groups)
        energy += gs.energyMwNs;
    rep.macroPowerMw =
        rep.wallTimeNs > 0.0 && state.activeMacros > 0
            ? energy / rep.wallTimeNs / state.activeMacros
            : 0.0;
    rep.irMeanMv = stats.dropStats.mean();
    rep.meanLevel = stats.levelSamples > 0
                        ? stats.levelWeighted / stats.levelSamples
                        : 100.0;
    rep.meanRtog = stats.levelSamples > 0
                       ? stats.rtogWeighted / stats.levelSamples
                       : 0.0;
    // Effective throughput: the paper's framing is peak TOPS scaled
    // by the achieved frequency and the fraction of windows doing
    // useful work (recompute bubbles and V-f settling subtract).
    const double mean_f =
        rep.usefulWindows > 0
            ? stats.usefulFreqSum / rep.usefulWindows
            : env.cal.fNominal;
    rep.tops = env.pm.chipTops(mean_f, rep.utilization());
    rep.roundLatencyNs.push_back(rep.wallTimeNs);
}

Runtime::Runtime(const pim::PimConfig &cfg,
                 const power::Calibration &cal, const RunConfig &rcfg)
    : env(cfg, cal, rcfg)
{
}

RunReport
Runtime::run(const std::vector<Round> &rounds,
             const pim::StreamSpec &stream) const
{
    return run(rounds, stream, env.rcfg.seed);
}

RunReport
Runtime::run(const std::vector<Round> &rounds,
             const pim::StreamSpec &stream, uint64_t seed) const
{
    return run(rounds, stream, seed, nullptr);
}

RunReport
Runtime::run(const std::vector<Round> &rounds,
             const pim::StreamSpec &stream, uint64_t seed,
             std::unique_ptr<power::IrState> *carry,
             exec::ExecPool *pool, RoundObserver *observer) const
{
    const auto round_seed = [&](size_t i) {
        return seed + static_cast<uint64_t>(i) + 1;
    };
    // Without a carry both jobs run on the pool; a carry chains the
    // rounds, so it runs both serially, in index order.
    const auto for_each = [&](size_t n,
                              const std::function<void(long)> &item) {
        if (pool && !carry)
            pool->parallelFor(static_cast<long>(n), item);
        else
            for (size_t i = 0; i < n; ++i)
                item(static_cast<long>(i));
    };

    // The front job: the toggle statistics as item 0, then item r + 1
    // maps round r's tasks onto macros.  Neither reads the other, and
    // all of them are fixed before the first window.
    const auto objective =
        env.rcfg.boost.mode == booster::BoostMode::Sprint
            ? mapping::Objective::Sprint
            : mapping::Objective::LowPower;
    pim::ToggleStats toggles;
    std::vector<mapping::Mapping> maps(rounds.size());
    for_each(rounds.size() + 1, [&](long j) {
        if (j == 0) {
            toggles = pim::estimateToggleStats(stream, env.cfg.rows, 200,
                                               seed);
            return;
        }
        const auto i = static_cast<size_t>(j) - 1;
        if (rounds[i].tasks.empty())
            return;
        const mapping::MappingEvaluator eval(env.cfg, env.table, env.pm,
                                             objective, round_seed(i));
        maps[i] = mapping::mapWith(env.rcfg.mapper, rounds[i].tasks,
                                   env.cfg, eval, round_seed(i));
    });

    std::vector<RunReport> parts(rounds.size());
    for_each(rounds.size(), [&](long r) {
        const auto i = static_cast<size_t>(r);
        parts[i] = runRound(i, rounds[i], maps[i], toggles, round_seed(i),
                            carry, observer);
    });
    return mergeReports(parts);
}

RunReport
Runtime::runRound(size_t index, const Round &round,
                  const mapping::Mapping &map,
                  const pim::ToggleStats &toggles, uint64_t round_seed,
                  std::unique_ptr<power::IrState> *carry,
                  RoundObserver *observer) const
{
    RunReport rep;
    if (round.tasks.empty())
        return rep;

    util::Rng rng(round_seed);

    // Round setup: group / Set bookkeeping, controllers, samplers.
    ChipState state(env.cfg, env.cal, env.table, env.rcfg.boost,
                    env.rcfg.useBooster, round, map, toggles, rng);
    rep.totalMacs = state.totalMacs;

    // Per-round droop evaluator of the configured backend, seeded
    // from the carried electrical state when the caller threads one
    // through (burst continuity across requests on one chip).  The
    // null-carry path calls the plain newEval and stays bit-identical
    // to the pre-carry runtime.
    const auto droop =
        carry ? env.backend->newEval(state.activeMacroIds(),
                                     carry->get())
              : env.backend->newEval(state.activeMacroIds());

    WindowKernel kernel(env.cfg, env.cal, env.rcfg.useBooster,
                        env.pm, env.vminByF, env.recomputeStall,
                        env.switchStall);
    WindowStats stats;

    if (observer)
        observer->begin(index, state);
    for (long window = 1; window <= env.rcfg.maxWindowsPerRound &&
                          state.anyRemaining();
         ++window) {
        kernel.step(state, *droop, rng, rep, stats);
        if (observer)
            observer->window(index, state, window);
    }
    aim_assert(!state.anyRemaining(), "round did not converge within ",
               env.rcfg.maxWindowsPerRound, " windows");
    if (observer)
        observer->end(index, state);

    finalizeRoundReport(state, stats, env, rep);
    if (carry)
        *carry = droop->exportState();
    return rep;
}

RunReport
mergeReports(const std::vector<RunReport> &parts)
{
    RunReport out;
    double power_time = 0.0;
    double level_time = 0.0;
    double rtog_time = 0.0;
    double drop_time = 0.0;
    double tops_time = 0.0;
    for (const auto &p : parts) {
        out.wallTimeNs += p.wallTimeNs;
        out.roundLatencyNs.insert(out.roundLatencyNs.end(),
                                  p.roundLatencyNs.begin(),
                                  p.roundLatencyNs.end());
        out.totalMacs += p.totalMacs;
        out.failures += p.failures;
        out.stallWindows += p.stallWindows;
        out.usefulWindows += p.usefulWindows;
        out.vfSwitches += p.vfSwitches;
        out.irWorstMv = std::max(out.irWorstMv, p.irWorstMv);
        power_time += p.macroPowerMw * p.wallTimeNs;
        level_time += p.meanLevel * p.wallTimeNs;
        rtog_time += p.meanRtog * p.wallTimeNs;
        drop_time += p.irMeanMv * p.wallTimeNs;
        tops_time += p.tops * p.wallTimeNs;
    }
    if (out.wallTimeNs > 0.0) {
        out.macroPowerMw = power_time / out.wallTimeNs;
        out.meanLevel = level_time / out.wallTimeNs;
        out.meanRtog = rtog_time / out.wallTimeNs;
        out.irMeanMv = drop_time / out.wallTimeNs;
        out.tops = tops_time / out.wallTimeNs;
    }
    return out;
}

} // namespace aim::sim
