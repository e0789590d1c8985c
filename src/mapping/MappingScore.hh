/**
 * @file
 * The lightweight mapping evaluator of paper Section 5.6: a 100-step
 * input flip sequence sampled from a normal distribution is combined
 * with the HR assigned to each macro to estimate the end-to-end delay
 * and power of a candidate mapping.
 *
 * Constraints modelled (Section 5.5.2 / 5.6):
 *  - macros of a physical Group share one V-f pair, pinned by the
 *    worst (highest-HR) task in the group;
 *  - macros of a logical Set must run at one frequency: the slowest
 *    group a set touches paces the whole set;
 *  - an IRFailure in one macro stalls its whole Set for a recompute
 *    window but not other Sets.
 *
 * A score is kept as a ScoreState: the per-group terms (worst HR,
 * level, V-f pair, failing flips, power, hosted count) and the
 * per-Set terms (cycles, slowest frequency, stalls, host count per
 * group) it reduces.  MappingEvaluator::evaluate builds one from
 * scratch.  The simulated-annealing mapper scores hundreds of
 * candidate swaps per round on one state: a swap recomputes only the
 * two groups and the Sets either hosts, then re-reduces every term
 * in the fixed ascending order, so an updated score equals the
 * from-scratch score bit for bit.
 */

#ifndef AIM_MAPPING_MAPPINGSCORE_HH
#define AIM_MAPPING_MAPPINGSCORE_HH

#include <cstdint>
#include <vector>

#include "mapping/Task.hh"
#include "power/PowerModel.hh"
#include "power/VfTable.hh"

namespace aim::mapping
{

/** What the annealer optimizes for. */
enum class Objective
{
    Sprint,   ///< minimize makespan (maximize effective TOPS)
    LowPower, ///< minimize energy at iso-throughput
};

/** Estimated cost of one mapping. */
struct ScoreBreakdown
{
    /** Scalar score (lower is better). */
    double score = 0.0;
    /** Estimated makespan in nominal-frequency cycles. */
    double makespanCycles = 0.0;
    /** Estimated energy (macro mW x cycles, arbitrary scale). */
    double energy = 0.0;
    /** Expected IRFailure-induced stall cycles. */
    double stallCycles = 0.0;
    /** Mean group power [mW]. */
    double meanGroupPowerMw = 0.0;
};

/** Deterministic lightweight simulator for mapping evaluation. */
class MappingEvaluator
{
  public:
    /**
     * @param cfg   chip geometry
     * @param table validated V-f pairs
     * @param pm    calibrated power model
     * @param objective optimization mode
     * @param seed  seed of the 100-step flip sequence
     */
    MappingEvaluator(const pim::PimConfig &cfg,
                     const power::VfTable &table,
                     const power::PowerModel &pm, Objective objective,
                     uint64_t seed = 11);

    /** Score a mapping (lower is better). */
    ScoreBreakdown evaluate(const Mapping &mapping,
                            const std::vector<Task> &tasks) const;

    Objective objective() const { return mode; }

  private:
    friend class ScoreState;

    pim::PimConfig cfg;
    const power::VfTable &table;
    const power::PowerModel &pm;
    Objective mode;
    /** Pre-sampled 100-step flip fractions (paper Section 5.6),
     * sorted ascending: only their count above a limit is read. */
    std::vector<double> flipSeq;
};

/**
 * The score of one mapping, kept as the terms it reduces so that a
 * swap of two macros rescores in time proportional to the Sets the
 * two groups host rather than to the chip.
 */
class ScoreState
{
  public:
    /**
     * Score @p mapping of @p tasks from scratch.  @p evaluator and
     * @p tasks must outlive the state.
     */
    ScoreState(const MappingEvaluator &evaluator, Mapping mapping,
               const std::vector<Task> &tasks);

    /**
     * Swap the tasks of macros @p m1 and @p m2 (either may be vacant)
     * and rescore.  The same call again undoes it.
     */
    void swap(int m1, int m2);

    /** The current mapping's score. */
    const ScoreBreakdown &breakdown() const { return out; }

    /** The current mapping. */
    const Mapping &mapping() const { return map; }

  private:
    /** Terms of one physical group. */
    struct GroupTerms
    {
        /** Worst task HR (input-determined tiles count as 1.0); a
         * group at 0 is powered down and scores nothing. */
        double worstHr = 0.0;
        int level = 0;
        power::VfPair pair;
        /** Stall cycles each hosted Set takes from this group's
         * failing flips (0 when none fails). */
        double stall = 0.0;
        bool failing = false;
        double powerMw = 0.0;
        int hosted = 0;
    };

    /** Terms of one logical Set, indexed by Set id - first id. */
    struct SetTerms
    {
        double cycles = 0.0;
        /** Frequency of the slowest hosting group. */
        double freq = 0.0;
        double stalls = 0.0;
        bool stalled = false;
        /** Effective cycles over frequency. */
        double time = 0.0;
        /** Mapped tasks of the Set; 0 = not on the chip. */
        int tasks = 0;
    };

    void scoreGroup(int g);
    void scoreSet(size_t k);
    void reduce();
    size_t setOf(int task) const
    {
        return static_cast<size_t>(tasks[task].setId - firstSet);
    }
    int &hosts(size_t set, int group)
    {
        return hostCount[set * groups.size() + static_cast<size_t>(group)];
    }

    const MappingEvaluator &eval;
    const std::vector<Task> &tasks;
    Mapping map;
    /** Smallest mapped Set id. */
    int firstSet = 0;
    std::vector<GroupTerms> groups;
    std::vector<SetTerms> sets;
    /** Macros of each group running tasks of each Set:
     * [set * groups + group]. */
    std::vector<int> hostCount;
    ScoreBreakdown out;
};

} // namespace aim::mapping

#endif // AIM_MAPPING_MAPPINGSCORE_HH
