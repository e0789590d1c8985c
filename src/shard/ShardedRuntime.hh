/**
 * @file
 * Execution layer of the sharding subsystem: compiles a ShardPlan's
 * stages through the regular AimPipeline offline flow and executes
 * them as a micro-batched pipeline across the gang's chips.
 *
 * Execution model: one request is cut into M micro-batches; stage s
 * processes micro-batch m as soon as (a) it finished micro-batch m-1
 * and (b) stage s-1's output of micro-batch m crossed the
 * interconnect.  Tensor-parallel stages run their per-chip slice and
 * all-gather the full activation before handing it downstream.  The
 * schedule is the classic GPipe-style fill/steady/drain diagram; its
 * idle fraction is reported as the pipeline bubble.
 *
 * Determinism: every (stage, micro-batch) chip run is a pure function
 * of (stage artifact, derived seed) -- the same property the serving
 * fleet exploits -- so the grid executes on exec::ExecPool with
 * index-derived seeds and the pipeline schedule is replayed serially
 * over the memoized reports.  A ShardReport for a fixed (model,
 * partition, seed) is bit-identical at any thread count
 * (tests/shard/ShardedRuntimeTest).
 *
 * The grid runs over prebuilt per-stage sim::Runtimes.  The serving
 * loop builds a gang model's runtimes once per run
 * (serve::ArtifactMeta) and hands in its own pool: at dispatch, or
 * as the only item of an execute-ahead fan-out, the grid fans out on
 * it, and inside a fan-out of several it runs inline.  The StageEnv
 * form builds the runtimes per call and forwards, so the grid and the
 * pipeline replay exist once.
 */

#ifndef AIM_SHARD_SHARDEDRUNTIME_HH
#define AIM_SHARD_SHARDEDRUNTIME_HH

#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "shard/Interconnect.hh"
#include "shard/Partitioner.hh"

namespace aim::exec
{
class ExecPool;
} // namespace aim::exec

namespace aim::shard
{

/** Runtime tuning of the sharded pipeline. */
struct ShardRuntimeConfig
{
    /** Micro-batches one request is cut into (>= 1). */
    int microBatches = 4;
    /**
     * Host worker threads executing the (stage, micro-batch) grid.
     * 0 resolves to the hardware concurrency; 1 runs inline;
     * negative is rejected.  Simulated results never depend on it.
     */
    int threads = 1;
    /** Link calibration of the chip-to-chip interconnect. */
    InterconnectConfig interconnect;
};

/** Check a runtime shape; empty when valid, else the first problem. */
std::string validateShardRuntimeConfig(const ShardRuntimeConfig &cfg);

/**
 * The cacheable product of sharded compilation: the plan plus one
 * CompiledModel per stage (the per-chip slice for tensor-parallel
 * stages).  Immutable after compileSharded; serve::ModelCache shares
 * it across requests and threads like any other artifact.
 */
struct ShardedModel
{
    ShardPlan plan;
    /** Options every stage was compiled under. */
    AimOptions options;
    /** Per-stage artifacts, in pipeline order. */
    std::vector<CompiledModel> stages;

    /** Chips the model occupies. */
    int totalChips() const { return plan.totalChips(); }
    /** Scaled MAC work of one request summed over stages (TP stages
     * count every member chip's slice). */
    double scaledMacs() const;
};

/**
 * Partition @p model under @p pcfg and compile every stage with
 * @p pipe.  Pure in (model, opts, pcfg): cache freely.
 */
ShardedModel compileSharded(const AimPipeline &pipe,
                            const workload::ModelSpec &model,
                            const AimOptions &opts,
                            const PartitionConfig &pcfg);

/**
 * Heterogeneous-gang compile: partition @p model under @p pcfg, then
 * compile each stage against the chip geometry and calibration of the
 * member slot hosting it (@p slotPim / @p slotCal, one entry per
 * member slot in stage order; a tensor-parallel stage occupies `ways`
 * consecutive slots and compiles against its first).  With identical
 * entries everywhere this reduces to compileSharded.  Pure in all
 * arguments: cache freely (serve::ModelCache keys it on the slot SKU
 * names).
 */
ShardedModel
compileShardedSlots(const workload::ModelSpec &model,
                    const AimOptions &opts,
                    const PartitionConfig &pcfg,
                    const std::vector<pim::PimConfig> &slotPim,
                    const std::vector<power::Calibration> &slotCal);

/**
 * Per-stage execution environment of a heterogeneous gang: the chip
 * geometry, calibration and (PDN-corner-scaled) run config of the
 * member hosting the stage.  One entry per stage -- tensor-parallel
 * stages use their first member slot's environment for every slice.
 */
struct StageEnv
{
    pim::PimConfig cfg;
    power::Calibration cal;
    sim::RunConfig rcfg;
};

/** Everything one sharded execution produces. */
struct ShardReport
{
    std::string modelName;
    /** Droop backend every (stage, micro-batch) run used. */
    power::IrBackendKind backend = power::IrBackendKind::Analytic;
    int stages = 0;
    /** Chips occupied (pipeline stages + tensor-parallel extras). */
    int chips = 0;
    int microBatches = 0;

    /** Pipeline makespan of the request [us, scaled sim time]. */
    double makespanUs = 0.0;
    /** Chip-time spent computing, summed over chips [us]. */
    double computeUs = 0.0;
    /** Chip-time spent on stage transfers and collectives [us]. */
    double interconnectUs = 0.0;
    /** Idle fraction of chips x makespan (fill/drain + imbalance). */
    double bubbleFraction = 0.0;
    /** Link fraction of chips x makespan. */
    double interconnectFraction = 0.0;
    /** Per-chip MAC imbalance of the plan (max/mean - 1). */
    double stageImbalance = 0.0;

    /** Per-stage compute time of one full request [us, per chip]. */
    std::vector<double> stageComputeUs;
    /**
     * MACs the request executed across every chip (tensor-parallel
     * stages count each member's slice) [scaled].
     */
    double totalMacs = 0.0;
    /** Chip-level stats merged over every (stage, micro-batch) run
     * (IR-drop, booster levels, failures, stalls, energy; TP slices
     * counted once -- use totalMacs for work accounting). */
    sim::RunReport merged;

    /** Human-readable summary (headline + per-stage table). */
    std::string render() const;
};

/** Executes ShardedModels on a gang of modelled chips. */
class ShardedRuntime
{
  public:
    /** Fatal on an invalid @p rcfg. */
    ShardedRuntime(const pim::PimConfig &cfg,
                   const power::Calibration &cal,
                   const ShardRuntimeConfig &rcfg);

    /**
     * Execute one request through the sharded pipeline.
     *
     * @param sharded artifact from compileSharded
     * @param seed request noise seed; (stage, micro-batch) runs
     *        derive their seeds from it and the grid index only
     */
    ShardReport execute(const ShardedModel &sharded,
                        uint64_t seed) const;

    /**
     * Heterogeneous-gang variant: each stage simulates on the chip
     * environment of its member slot (@p stageEnvs, one entry per
     * stage).  nullptr falls back to the constructor environment for
     * every stage -- byte-identical to the two-argument overload.
     * Builds the stage runtimes and forwards to the runtime form.
     */
    ShardReport execute(const ShardedModel &sharded, uint64_t seed,
                        const std::vector<StageEnv> *stageEnvs) const;

    /**
     * Execute over prebuilt stage runtimes: @p stageRuntimes holds
     * one runtime per stage (entries may repeat), each configured
     * for the member hosting the stage.  The grid runs on @p pool,
     * or -- when null -- on a pool of the config's thread count.
     * Bit-identical to the StageEnv form over the same environments.
     */
    ShardReport
    execute(const ShardedModel &sharded, uint64_t seed,
            const std::vector<const sim::Runtime *> &stageRuntimes,
            exec::ExecPool *pool = nullptr) const;

    const ShardRuntimeConfig &config() const { return rcfg; }

  private:
    pim::PimConfig cfg;
    power::Calibration cal;
    ShardRuntimeConfig rcfg;
};

} // namespace aim::shard

#endif // AIM_SHARD_SHARDEDRUNTIME_HH
