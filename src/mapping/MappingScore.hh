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
 * The evaluator is const and stateless: the simulated-annealing
 * mapper scores hundreds of candidates per round through one
 * evaluator, passing in an EvalScratch it owns so the per-call
 * arrays are reused instead of reallocated.
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

/** Buffers MappingEvaluator::evaluate reuses across calls; owned by
 * the caller, so one evaluator serves any number of threads. */
struct EvalScratch
{
    /** Per-Set accumulators over the mapped Set-id range. */
    struct SetAcc
    {
        double cycles = 0.0;
        double freq = 0.0;
        double stalls = 0.0;
        bool present = false; ///< some macro runs a task of this Set
        bool stalled = false; ///< some group hosting it fails
    };

    std::vector<double> worstHr;
    std::vector<int> groupLevel;
    std::vector<power::VfPair> groupPair;
    std::vector<SetAcc> sets;
    std::vector<uint8_t> hosts; ///< [set][group]
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

    /** Score a mapping in @p scratch's buffers; bit-identical to the
     * two-argument form. */
    ScoreBreakdown evaluate(const Mapping &mapping,
                            const std::vector<Task> &tasks,
                            EvalScratch &scratch) const;

    Objective objective() const { return mode; }

  private:
    pim::PimConfig cfg;
    const power::VfTable &table;
    const power::PowerModel &pm;
    Objective mode;
    /** Pre-sampled 100-step flip fractions (paper Section 5.6),
     * sorted ascending: only their count above a limit is read. */
    std::vector<double> flipSeq;
};

} // namespace aim::mapping

#endif // AIM_MAPPING_MAPPINGSCORE_HH
