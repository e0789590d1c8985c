/**
 * @file
 * Fleet shape of the serving engine (stream::EventLoop): how many
 * chips of which SKUs, the dispatch policy, the execution options,
 * the models served sharded across chip gangs, and the calibration
 * of the two serving-specific costs that sit on top of the chip
 * model:
 *
 *   weight reload -- switching a chip's resident model rewrites every
 *       macro's SRAM-resident weights; the cost scales with the
 *       model's pretrained weight count
 *   booster retune -- moving the chip between workloads of different
 *       safe Rtog levels forces the IR-Booster through V-f retune
 *       transients, one settle per level step
 *
 * The IR-aware scheduler exists to dodge exactly these two costs.
 *
 * workScale extrapolation: compiled artifacts simulate a fraction of
 * each inference (AimOptions::workScale); the engine scales measured
 * wall times and MAC counts back to full-inference magnitudes so
 * latencies, SLOs and TOPS are in real units.  ChipUsage is where
 * each chip's makespan went in a served run.
 */

#ifndef AIM_SERVE_FLEET_HH
#define AIM_SERVE_FLEET_HH

#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "serve/ChipSku.hh"
#include "serve/Scheduler.hh"
#include "shard/Interconnect.hh"
#include "shard/Partitioner.hh"

namespace aim::serve
{

/**
 * Gang-dispatch rule: requests for @p model execute sharded across
 * a group of partition.chips chips (src/shard/) instead of on a
 * single chip.  The gang is acquired atomically -- the request waits
 * until that many chips are simultaneously free -- and every member
 * chip is held for the whole pipeline makespan.
 */
struct GangSpec
{
    /** ModelZoo name served sharded. */
    std::string model;
    /** Partition shape (partition.chips = gang size). */
    shard::PartitionConfig partition;
    /** Micro-batches per request in the stage pipeline. */
    int microBatches = 4;
};

/**
 * Fleet shape and serving-cost calibration.
 *
 * `options` participates on both sides of the compile/execute split:
 * it keys the ModelCache artifacts the fleet requests (so two fleets
 * with different options never share artifacts) and, via
 * runConfigFor(), configures the per-chip runtimes that execute
 * them.  The serving engine never compiles on its own -- artifacts
 * always come from the caller's ModelCache.
 */
struct FleetConfig
{
    /** Chips in the fleet. */
    int chips = 3;
    /** Dispatch policy. */
    SchedPolicy policy = SchedPolicy::Fcfs;
    /** Compile / runtime options applied to every served model. */
    AimOptions options;
    /** Fleet seed; per-request runtime seeds derive from it. */
    uint64_t seed = 99;
    /**
     * Host worker threads executing chip runs (simulated results do
     * not depend on it).  1 = inline serial execution; 0 resolves to
     * the hardware concurrency; negative is rejected by
     * validateFleetConfig.
     */
    int threads = 1;
    /**
     * Macro weight reload cost per million weight elements [us]
     * (default ~ 8-bit weights over a ~100 GB/s on-package link).
     * Single source of truth for the reload link: when
     * options.isaLoadUsPerMword / isaRetuneUs carry their negative
     * "derive" sentinel, the serving engines copy this value (and
     * retuneUsPerStep) into the options at construction, so the
     * instruction-grain costs and the whole-model dispatch costs
     * price the same link.
     */
    double reloadUsPerMweight = 8.0;
    /** Booster V-f retune cost per safe-level step [us]. */
    double retuneUsPerStep = 0.5;
    /** Models served sharded across chip gangs (may be empty). */
    std::vector<GangSpec> gangs;
    /** Chip-to-chip link calibration for gang-dispatched models. */
    shard::InterconnectConfig interconnect;
    /**
     * Chip SKU table of a heterogeneous fleet.  Empty (the default)
     * = a SKU-less fleet: every chip is the (cfg, cal) pair the
     * engine was constructed with, one class of unbounded capacity.
     * Non-empty: every chip is an instance of one of these SKUs per
     * `skuOf`, artifacts compile per SKU, and dispatch is
     * capability-aware (a model only lands on a chip whose SKU
     * capacity holds its weights).
     */
    std::vector<ChipSku> skus;
    /**
     * Per-chip SKU assignment: skuOf[c] indexes `skus`.  Must have
     * exactly `chips` entries when `skus` is non-empty, and must be
     * empty when it is.
     */
    std::vector<int> skuOf;
};

/**
 * Check a fleet shape for values the simulation cannot represent.
 *
 * @return empty when valid, otherwise a human-readable description
 *         of the first problem found: non-positive chips, negative
 *         threads, invalid AimOptions / interconnect calibration, a
 *         gang whose size exceeds the fleet or whose partition /
 *         micro-batch shape is invalid, duplicate gang models, an
 *         invalid or inconsistent SKU table (bad ChipSku, skuOf
 *         size/range mismatch, duplicate SKU names), or -- on a
 *         heterogeneous fleet -- a gang whose size exceeds the
 *         number of chips *capable* of holding its per-member weight
 *         share.  The stream::EventLoop constructor calls this (via
 *         stream::validateStreamConfig) and aim_fatal on a
 *         non-empty result.
 */
std::string validateFleetConfig(const FleetConfig &fcfg);

/** Where one chip's makespan went. */
struct ChipUsage
{
    /** Requests this chip served. */
    long served = 0;
    /** Time spent executing inferences [us]. */
    double busyUs = 0.0;
    /** Time spent reloading macro weights on model switches [us]. */
    double reloadUs = 0.0;
    /** Time spent retuning the IR-Booster across levels [us]. */
    double retuneUs = 0.0;
    /** Model switches (each implies a full weight reload). */
    long modelSwitches = 0;

    /** Fraction of the makespan doing useful inference work. */
    double utilization(double makespanUs) const
    {
        return makespanUs > 0.0 ? busyUs / makespanUs : 0.0;
    }
};

} // namespace aim::serve

#endif // AIM_SERVE_FLEET_HH
