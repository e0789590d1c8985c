/**
 * @file
 * Per-round execution state of the chip runtime, factored out of the
 * old Runtime::runRound monolith: the per-group controller state
 * (samplers, monitor, booster, operating point, energy) and the
 * per-Set progress bookkeeping (passes remaining, pending stalls,
 * wall time).  Construction performs the whole round setup --
 * mapping-to-group assignment, Set discovery, safe-level derivation,
 * booster/monitor instantiation -- leaving the window engine
 * (sim/WindowKernel) a pure per-window advance over this state.
 *
 * Storage is flat: the Sets live in one vector in ascending id, and
 * group <-> Set membership is index vectors (a group lists the
 * indices of its Sets in ChipState::sets, a Set the ids of its
 * groups, both ascending).  Indices rather than pointers keep a
 * ChipState safe to move, and the window loop touches no tree node.
 * findSet() maps a Set id to its state by binary search, and
 * anyRemaining() reads a count of unfinished Sets that the window
 * kernel keeps.
 */

#ifndef AIM_SIM_CHIPSTATE_HH
#define AIM_SIM_CHIPSTATE_HH

#include <memory>
#include <vector>

#include "booster/GroupBooster.hh"
#include "mapping/Mappers.hh"
#include "pim/ToggleModel.hh"
#include "power/IrMonitor.hh"
#include "power/VfTable.hh"
#include "sim/Compiler.hh"

namespace aim::sim
{

/** Controller and accounting state of one macro group. */
struct GroupState
{
    bool active = false;
    /** Macro ids hosting tasks. */
    std::vector<int> macros;
    /** One Rtog sampler per hosted task. */
    std::vector<pim::RtogSampler> samplers;
    /** Indices into ChipState::sets of the Sets with a task in this
     * group, ascending. */
    std::vector<int> sets;
    int safeLevel = 100;
    power::VfPair pair;
    std::unique_ptr<booster::GroupBooster> boost;
    std::unique_ptr<power::IrMonitor> monitor;
    double energyMwNs = 0.0;
    /** Effective frequency after Set synchronization [GHz]. */
    double fEff = 0.0;
    /**
     * Expected cycle Rtog of the hosted tasks (mean over samplers).
     * Constant for the round, so hoisted out of the window loop.
     */
    double meanRtog = 0.0;

    /**
     * WindowKernel's operating-point cache: the (V, fEff) it was
     * last refreshed at (0 before the first window) and the energy
     * of one window there (macro power x hosted macros x window
     * length).  The monitor's threshold is programmed for opF.
     */
    double opV = 0.0;
    double opF = 0.0;
    double windowEnergyMwNs = 0.0;
};

/** Progress bookkeeping of one logical Set. */
struct SetState
{
    /** The Set's id (Task::setId). */
    int id = 0;
    /** Bit-serial passes still to execute. */
    long remaining = 0;
    /** Stall windows pending (recompute / V-f settle). */
    long stall = 0;
    /** Wall time accumulated by this Set [ns]. */
    double wallNs = 0.0;
    /** Ids of the groups hosting this Set's tasks, ascending. */
    std::vector<int> groups;
    double macsPerPass = 0.0;
    /**
     * This window's synchronized Set frequency [GHz] (slowest member
     * group).  Scratch refreshed every window by the kernel --
     * keeping it here avoids the per-window map the old monolith
     * allocated.
     */
    double freqGhz = 0.0;
};

class WindowKernel;

/** All mutable state of one round's execution. */
class ChipState
{
  public:
    /**
     * Set up the round: assign mapped tasks to groups, build
     * samplers / monitors / boosters, and derive Set work.
     *
     * @param rng round RNG; only fork()ed (never advanced), so the
     *        caller's stream position is unchanged
     */
    ChipState(const pim::PimConfig &cfg,
              const power::Calibration &cal,
              const power::VfTable &table,
              const booster::BoosterConfig &boost, bool useBooster,
              const Round &round, const mapping::Mapping &map,
              const pim::ToggleStats &toggles,
              const util::Rng &rng);

    /** Any Set still has passes to execute. */
    bool anyRemaining() const { return unfinished > 0; }

    /** The state of Set @p id, or nullptr if no task of the round's
     * mapping belongs to it. */
    const SetState *findSet(int id) const;

    /** Macro ids hosting tasks, per group (for IrBackend::newEval). */
    std::vector<std::vector<int>> activeMacroIds() const;

    std::vector<GroupState> groups;
    /** Per-Set state, ascending id (iteration order matters). */
    std::vector<SetState> sets;
    int activeMacros = 0;
    /** Total useful MACs of the round (RunReport::totalMacs). */
    double totalMacs = 0.0;

  private:
    friend class WindowKernel;

    /** Sets with passes remaining; WindowKernel::step counts a Set
     * off when its last pass runs. */
    int unfinished = 0;
};

} // namespace aim::sim

#endif // AIM_SIM_CHIPSTATE_HH
