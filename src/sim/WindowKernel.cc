#include "sim/WindowKernel.hh"

#include <algorithm>

namespace aim::sim
{

WindowKernel::WindowKernel(const pim::PimConfig &cfg,
                           const power::Calibration &cal,
                           bool use_booster,
                           const power::PowerModel &pm,
                           const std::map<double, double> &vmin_by_f,
                           long recompute_stall, long switch_stall)
    : cfg(cfg), cal(cal), pm(pm), vminByF(vmin_by_f),
      useBooster(use_booster), recomputeStall(recompute_stall),
      switchStall(switch_stall),
      groupBuf(static_cast<size_t>(cfg.groups)),
      dropBuf(static_cast<size_t>(cfg.groups), 0.0),
      sampledMeanBuf(static_cast<size_t>(cfg.groups), 0.0)
{
}

void
WindowKernel::refresh(GroupState &gs) const
{
    // The monitor threshold depends on fEff alone, so a V-only move
    // keeps it.
    if (useBooster && gs.fEff != gs.opF)
        gs.monitor->setThreshold(vminByF.at(gs.fEff) -
                                 cal.monitorGuardMv / 1000.0);
    const double window_ns =
        static_cast<double>(cfg.inputBits) / gs.fEff;
    gs.windowEnergyMwNs =
        pm.macroPowerMw(gs.pair.v, gs.fEff, gs.meanRtog) *
        gs.samplers.size() * window_ns;
    gs.opV = gs.pair.v;
    gs.opF = gs.fEff;
}

void
WindowKernel::step(ChipState &state, power::IrEval &eval,
                   util::Rng &rng, RunReport &rep,
                   WindowStats &stats)
{
    const int groups = static_cast<int>(state.groups.size());

    // Sample every active group's Rtog into the reused buffers: the
    // worst macro drives droop, the sampled mean feeds the Rtog
    // statistics.
    for (int g = 0; g < groups; ++g) {
        auto &gs = state.groups[static_cast<size_t>(g)];
        auto &gw = groupBuf[static_cast<size_t>(g)];
        if (!gs.active) {
            gw.active = false;
            continue;
        }
        // Only a state's first window finds its cache unset: every
        // later (V, fEff) move is caught where it happens, below.
        if (gs.pair.v != gs.opV || gs.fEff != gs.opF)
            refresh(gs);
        double worst_rtog = 0.0;
        double mean_rtog = 0.0;
        for (auto &sampler : gs.samplers) {
            const double r = sampler.sample();
            worst_rtog = std::max(worst_rtog, r);
            mean_rtog += r;
        }
        mean_rtog /= static_cast<double>(gs.samplers.size());
        gw.active = true;
        gw.v = gs.pair.v;
        gw.fGhz = gs.fEff;
        gw.rtog = worst_rtog;
        sampledMeanBuf[static_cast<size_t>(g)] = mean_rtog;
    }

    // Droop at each group's voltage and *effective* (Set-
    // synchronized) frequency -- through the pluggable backend.
    eval.window(groupBuf, rng, dropBuf);

    // Monitor digitization and Algorithm-2 control per group.
    for (int g = 0; g < groups; ++g) {
        auto &gs = state.groups[static_cast<size_t>(g)];
        if (!gs.active)
            continue;
        const double drop = dropBuf[static_cast<size_t>(g)];
        stats.dropStats.add(drop);
        rep.irWorstMv = std::max(rep.irWorstMv, drop);

        bool failure = false;
        if (useBooster) {
            const double veff = gs.pair.v - drop / 1000.0;
            failure = gs.monitor->sample(veff).irFailure;

            // Frequency sync from the Set resets the safe counter
            // (Algorithm 2 lines 11-13); the level itself is not
            // disturbed -- the group simply clocks slower.
            const bool sync = gs.fEff + 1e-12 < gs.pair.fGhz;
            const auto dec =
                gs.boost->step(failure, sync, gs.boost->level());
            // Stalls saturate rather than stack: recomputes of
            // several macros of one Set proceed in parallel while
            // the Set holds partial sums (Figure 11), and a V-f
            // settle window absorbs concurrent switches.
            if (failure) {
                ++rep.failures;
                for (int s : gs.sets) {
                    auto &ss = state.sets[static_cast<size_t>(s)];
                    ss.stall = std::max(ss.stall, recomputeStall);
                }
            }
            if (dec.vfSwitched) {
                ++rep.vfSwitches;
                for (int s : gs.sets) {
                    auto &ss = state.sets[static_cast<size_t>(s)];
                    ss.stall = std::max(ss.stall, switchStall);
                }
            }
            gs.pair = dec.pair;
            stats.levelWeighted += dec.level;
        } else {
            stats.levelWeighted += 100.0;
        }
        stats.rtogWeighted += sampledMeanBuf[static_cast<size_t>(g)];
        ++stats.levelSamples;
    }

    // Set frequencies: each Set runs at its slowest group; a group
    // hosting several Sets clocks at the lowest demand.
    for (auto &ss : state.sets) {
        double f = 1e9;
        for (int g : ss.groups)
            f = std::min(f,
                         state.groups[static_cast<size_t>(g)]
                             .pair.fGhz);
        ss.freqGhz = f;
    }
    for (int g = 0; g < groups; ++g) {
        auto &gs = state.groups[static_cast<size_t>(g)];
        if (!gs.active)
            continue;
        double f = gs.pair.fGhz;
        for (int s : gs.sets)
            f = std::min(f, state.sets[static_cast<size_t>(s)].freqGhz);
        gs.fEff = f;

        // Window energy at the group's operating point.
        if (gs.pair.v != gs.opV || gs.fEff != gs.opF)
            refresh(gs);
        gs.energyMwNs += gs.windowEnergyMwNs;
    }

    // Set progress.
    for (auto &ss : state.sets) {
        if (ss.remaining == 0)
            continue;
        const double f = ss.freqGhz;
        const double window_ns =
            static_cast<double>(cfg.inputBits) / f;
        ss.wallNs += window_ns;
        if (ss.stall > 0) {
            --ss.stall;
            ++rep.stallWindows;
        } else {
            if (--ss.remaining == 0)
                --state.unfinished;
            ++rep.usefulWindows;
            stats.usefulFreqSum += f;
        }
    }
}

} // namespace aim::sim
