/**
 * @file
 * The window engine: advances one bit-serial window over a round's
 * ChipState.  One step is the paper's runtime inner loop --
 *
 *   sample Rtog -> evaluate droop (power/IrBackend) -> digitize
 *   (IrMonitor) -> Algorithm-2 booster step -> Set frequency sync ->
 *   energy + Set progress
 *
 * -- decomposed out of the old Runtime::runRound monolith.  The
 * kernel owns the reused per-window buffers (group operating points,
 * droop results, sampled means), so the steady-state loop performs no
 * heap allocation; droop evaluation goes through the pluggable
 * IrEval, so the same engine runs the Equation-2 analytic model or
 * the PDN-mesh layout model unchanged.
 *
 * A step does only the draws and arithmetic the model defines.  What
 * depends on a group's operating point alone is cached in its
 * GroupState and refreshed only when that point moves:
 *   - the monitor threshold (the vminByF lookup and setThreshold)
 *     when the group's fEff changes;
 *   - the energy of one window (macro power x hosted macros x window
 *     length) when its (V, fEff) changes.
 * The refresh runs where fEff is set, after the Set sync, so after
 * every step the monitor is programmed for the current fEff; a
 * state's first step fills the cache before it samples.  Every value
 * is the one the uncached expression gives, so no report bit moves.
 * The booster looks its V-f pair up only when its level changes
 * (booster/GroupBooster), and the Sets and their membership are flat
 * index vectors (sim/ChipState).
 */

#ifndef AIM_SIM_WINDOWKERNEL_HH
#define AIM_SIM_WINDOWKERNEL_HH

#include <map>
#include <vector>

#include "power/IrBackend.hh"
#include "sim/ChipState.hh"
#include "sim/Runtime.hh"
#include "util/Stats.hh"

namespace aim::sim
{

/** Accumulators the window loop feeds and finalization consumes. */
struct WindowStats
{
    util::RunningStats dropStats;
    double levelWeighted = 0.0;
    double rtogWeighted = 0.0;
    long levelSamples = 0;
    double usefulFreqSum = 0.0;
};

/** Advances ChipState one window at a time. */
class WindowKernel
{
  public:
    /**
     * @param vminByF timing-threshold table per grid frequency,
     *        precomputed once by the Runtime (one bisection per
     *        frequency -- formerly redone every round)
     */
    WindowKernel(const pim::PimConfig &cfg,
                 const power::Calibration &cal, bool useBooster,
                 const power::PowerModel &pm,
                 const std::map<double, double> &vminByF,
                 long recomputeStall, long switchStall);

    /**
     * Advance one window: sample, droop, monitor, boost, sync,
     * energy, progress.  Updates @p state in place and accumulates
     * into @p rep / @p stats.
     */
    void step(ChipState &state, power::IrEval &eval, util::Rng &rng,
              RunReport &rep, WindowStats &stats);

  private:
    /** Recompute @p gs's operating-point cache at its current
     * (V, fEff): the monitor threshold when fEff moved, and the
     * window energy. */
    void refresh(GroupState &gs) const;

    const pim::PimConfig &cfg;
    const power::Calibration &cal;
    const power::PowerModel &pm;
    const std::map<double, double> &vminByF;
    bool useBooster;
    long recomputeStall;
    long switchStall;

    /** Reused per-window buffers (no steady-state heap traffic). */
    std::vector<power::GroupWindow> groupBuf;
    std::vector<double> dropBuf;
    std::vector<double> sampledMeanBuf;
};

} // namespace aim::sim

#endif // AIM_SIM_WINDOWKERNEL_HH
