/**
 * @file
 * Public facade of the AIM stack: the end-to-end flow of paper
 * Section 5.2.2.
 *
 *   offline:  synthesize / load weights -> quantize with LHR ->
 *             WDS shift -> compile (tile + HR) -> HR-aware mapping
 *   runtime:  per-group IR monitors + IR-Booster V-f adjustment with
 *             IRFailure-driven recomputing
 *
 * A single AimPipeline::run() executes the whole flow for one model
 * and returns quantization, accuracy, and chip-level results; every
 * stage can be disabled independently for ablations (Figure 19).
 */

#ifndef AIM_AIM_AIM_HH
#define AIM_AIM_AIM_HH

#include "booster/GroupBooster.hh"
#include "mapping/Mappers.hh"
#include "power/Calibration.hh"
#include "sim/Runtime.hh"
#include "workload/AccuracyProxy.hh"
#include "workload/ModelZoo.hh"

namespace aim
{

namespace isa
{
struct Program;
struct Schedule;
class TraceSink;
} // namespace isa

/**
 * Feature toggles and tuning of a pipeline run.
 *
 * With the compile/execute split, every field participates in the
 * identity of a CompiledModel: the offline fields (useLhr, lambda,
 * useWds, wdsDelta, bits, workScale, seed, mapper) shape the
 * artifact itself, while the runtime fields (useBooster,
 * aggressiveAdjustment, mode, beta) travel inside it to configure
 * execution via runConfigFor().  serve::ModelCache therefore keys
 * artifacts on the full (model, options) pair -- two option sets
 * that differ anywhere never share an artifact, even if only their
 * runtime half differs.
 */
struct AimOptions
{
    /** Enable the LHR regularizer during quantization (S5.3). */
    bool useLhr = true;
    /** LHR strength lambda. */
    double lambda = 2.0;
    /** Enable the weight distribution shift (S5.4). */
    bool useWds = true;
    /** WDS shift amount (power of two; 8 or 16 for INT8). */
    int wdsDelta = 16;
    /** Enable IR-Booster (false = DVFS baseline, S5.5). */
    bool useBooster = true;
    /** Enable Algorithm-2 aggressive adjustment (false = safe-level
     * only operation, the Figure 18/19 reference). */
    bool aggressiveAdjustment = true;
    /** IR-Booster operating mode. */
    booster::BoostMode mode = booster::BoostMode::Sprint;
    /** Algorithm-2 beta. */
    int beta = 50;
    /** Task mapping strategy (S5.6). */
    mapping::MapperKind mapper = mapping::MapperKind::HrAware;
    /**
     * Droop-evaluation backend of the runtime (power/IrBackend):
     * Analytic is the Equation-2 fast path, Mesh re-solves the PDN
     * mesh incrementally per window for layout-level fidelity,
     * Transient steps an RC mesh (decap + bump inductance) per
     * window for di/dt first-droop fidelity (see
     * bench_backend_fidelity for the speed/fidelity trade).
     */
    power::IrBackendKind irBackend = power::IrBackendKind::Analytic;
    /** Per-node decap of the Transient backend [nF]; must be
     * positive when irBackend is Transient. */
    double transientDecapNf = 20.0;
    /** Implicit-Euler step per window of the Transient backend [ns];
     * 0 derives the step from each window's actual duration
     * (inputBits / the fastest active group's clock), negative is
     * rejected. */
    double transientDtNs = 2.0;
    /**
     * Execute through the ISA path: compile() additionally lowers
     * the rounds to a PIM instruction Program (src/isa/Lower, with
     * the MAC_WINDOW+SHIFT_ACC fusion peephole) and execute() runs
     * it on the decode->issue->complete engine (src/isa/Engine)
     * instead of the round-level Runtime.  Reports are bit-identical
     * either way; the ISA path adds instruction accounting, the
     * cycle trace and the tail-idle measure the serving layer turns
     * into reload/compute overlap.
     */
    bool useIsa = false;
    /**
     * Cost-modelled instruction scheduling on the ISA path (requires
     * useIsa): lowering charges LOAD_WEIGHT/RETUNE their per-Set
     * costs (isaLoadUsPerMword / isaRetuneUs) and compile()
     * additionally list-schedules the program (src/isa/Schedule),
     * software-pipelining round r+1's loads/retunes into round r's
     * trailing MAC windows.  Droop/accuracy statistics stay
     * bit-identical to the in-order path -- only the cost-modelled
     * makespan (and the serving-layer service time derived from it)
     * moves; the saved difference is reported per request
     * (StreamReport::scheduleSavedUs).
     */
    bool isaSchedule = false;
    /**
     * LOAD_WEIGHT streaming cost [us per 1e6 weight words] of the
     * isaSchedule timing model -- the instruction-grain share of the
     * *same* link the serving layer prices whole-model reloads on
     * (serve::FleetConfig::reloadUsPerMweight; 1 Mword of INT8
     * weights == 1 Mweight element, so the units line up 1:1).
     * Negative = derive (the default): the serving engines copy
     * their FleetConfig::reloadUsPerMweight in, and standalone
     * compiles fall back to kDefaultIsaLoadUsPerMword -- one link
     * speed, one source of truth.  Explicitly non-negative values
     * are an expert override and are keyed/charged verbatim.
     */
    double isaLoadUsPerMword = -1.0;
    /**
     * RETUNE V-f settling cost [us] of the isaSchedule timing model
     * (the analogue of serve::FleetConfig::retuneUsPerStep).
     * Negative = derive, exactly like isaLoadUsPerMword.
     */
    double isaRetuneUs = -1.0;
    /** Quantization bit width. */
    int bits = 8;
    /** Fraction of the full inference workload simulated. */
    double workScale = 0.2;
    /** Master seed. */
    uint64_t seed = 7;

    /** The conventional chip: no AIM component active. */
    static AimOptions dvfsBaseline();
};

/** Shared reload-link default [us per Mweight/Mword]: the single
 * number behind both FleetConfig::reloadUsPerMweight and the
 * isaSchedule load cost when neither is set explicitly. */
inline constexpr double kDefaultIsaLoadUsPerMword = 8.0;
/** Shared retune default [us per step / per RETUNE]. */
inline constexpr double kDefaultIsaRetuneUs = 0.5;

/** The load cost an option set actually compiles/keys under: the
 * explicit value when non-negative, else the shared default. */
double resolvedIsaLoadUsPerMword(const AimOptions &opts);
/** The retune cost an option set actually compiles/keys under. */
double resolvedIsaRetuneUs(const AimOptions &opts);

/**
 * Check an option set for values the models cannot represent.
 *
 * @return an empty string when the options are valid, otherwise a
 *         human-readable description of the first problem found
 *         (non-power-of-two wdsDelta, out-of-range bits / workScale /
 *         lambda / beta).  Pipeline entry points call this and
 *         aim_fatal on a non-empty result.
 */
std::string validateOptions(const AimOptions &opts);

/**
 * The sim::RunConfig an option set implies.  Single source of the
 * AimOptions-to-runtime field mapping, shared by AimPipeline::execute
 * and the serving fleet; the returned seed is the historical
 * run() derivation (opts.seed ^ golden ratio) and callers running
 * many requests override it per request.
 */
sim::RunConfig runConfigFor(const AimOptions &opts);

/**
 * The cacheable product of the offline flow: everything `AimOptions`
 * and a model determine before the chip executes a single cycle.
 * Compiling once and executing many times is what an inference
 * service amortizes (src/serve/ModelCache); `AimPipeline::run` is now
 * exactly compile() followed by execute().
 */
struct CompiledModel
{
    /** Zoo name of the compiled network. */
    std::string modelName;
    /** Options the artifact was compiled under. */
    AimOptions options;

    /** HRaverage of the deployed (LHR/WDS-processed) weights. */
    double hrAverage = 0.0;
    /** HRmax across layers. */
    double hrMax = 0.0;
    /** Baseline ([64] quantization) HRaverage of the same weights. */
    double baselineHrAverage = 0.0;
    /** Baseline HRmax. */
    double baselineHrMax = 0.0;
    /** Fraction of weights clamped by WDS. */
    double wdsClampedFraction = 0.0;
    /** Accuracy proxy result (runtime-independent). */
    workload::AccuracyReport accuracy;

    /** Compiled rounds, already scaled by options.workScale. */
    std::vector<sim::Round> rounds;
    /** Activation statistics of the workload. */
    pim::StreamSpec stream;
    /** Lowered + fused instruction Program (options.useIsa only;
     * null otherwise).  Shared because the artifact itself is cached
     * and shared across requests and threads. */
    std::shared_ptr<const isa::Program> program;
    /** List-scheduled issue order of the program
     * (options.isaSchedule only; null otherwise). */
    std::shared_ptr<const isa::Schedule> schedule;

    /** Total MAC work of the scaled rounds (one request's work). */
    double scaledMacs() const;
};

/** Everything a pipeline run produces. */
struct AimReport
{
    /** HRaverage of the deployed weights. */
    double hrAverage = 0.0;
    /** HRmax across layers. */
    double hrMax = 0.0;
    /** Baseline ([64] quantization) HRaverage of the same weights. */
    double baselineHrAverage = 0.0;
    /** Baseline HRmax. */
    double baselineHrMax = 0.0;
    /** Fraction of weights clamped by WDS. */
    double wdsClampedFraction = 0.0;
    /** Accuracy proxy result. */
    workload::AccuracyReport accuracy;
    /** Chip-level execution result. */
    sim::RunReport run;

    /** IR-drop mitigation vs the signoff worst case (fraction). */
    double irMitigationVsSignoff = 0.0;
    /** Energy-efficiency gain vs the 4.2978 mW baseline macro. */
    double efficiencyGain = 0.0;

    // --- ISA-path accounting (populated only with useIsa) ---
    /** Instructions decoded by the engine. */
    long isaInstructions = 0;
    /** MAC_WINDOWs carrying a fused SHIFT_ACC. */
    long isaFusedMacs = 0;
    /** Tail idle of the final round [ns] (reload-overlap budget). */
    double isaTailIdleNs = 0.0;
    /** Cost-modelled in-order makespan [ns] (isa/Schedule replay;
     * equals run.wallTimeNs when no instruction costs are set). */
    double isaInOrderMakespanNs = 0.0;
    /** Makespan of the scheduled issue order [ns] (== in-order
     * unless options.isaSchedule). */
    double isaScheduledMakespanNs = 0.0;
    /** In-order minus scheduled makespan [ns] (>= 0). */
    double isaScheduleSavedNs = 0.0;
};

/** End-to-end AIM flow on the modelled chip. */
class AimPipeline
{
  public:
    AimPipeline(const pim::PimConfig &cfg,
                const power::Calibration &cal);

    /** Execute the full offline + runtime flow for one model. */
    AimReport run(const workload::ModelSpec &model,
                  const AimOptions &opts) const;

    /**
     * Offline flow + compilation only: quantize, shift, evaluate the
     * accuracy proxy, tile into rounds and apply workScale.  The
     * result is immutable and reusable across any number of execute()
     * calls (and across threads, since execute() does not touch it).
     *
     * Each per-layer pass runs once and fans the model's layers out
     * on a pool it creates per call, with min(layers, hardware
     * concurrency) threads: weight synthesis, the baseline and LHR
     * quantization, WDS, and the tiling of each operator (after a
     * serial placement of the operators into rounds).  The baseline
     * HR comes from the layers already synthesized: with LHR off it
     * is the offline quantization itself, read before WDS; with LHR
     * on it is quantizeBaseline of the layers before QAT.  Every item
     * writes only its own slot, so the artifact is bit-identical to
     * the serial passes (tests/aim/CompileGoldenTest).
     */
    CompiledModel compile(const workload::ModelSpec &model,
                          const AimOptions &opts) const;

    /**
     * Chip-execution half of run(): run a compiled artifact on the
     * modelled chip and assemble the full report.
     *
     * The artifact's rounds run on an exec::ExecPool this call
     * creates, with min(rounds, hardware concurrency) threads,
     * through sim::Runtime::run or isa::Engine::run, after a front
     * job on the same pool that estimates the toggle statistics and
     * maps every round.  The pooled rounds merge in round order, so
     * the report is bit-identical to the serial loop
     * (tests/aim/ExecuteGoldenTest).  A traced run
     * pools too: each round buffers its own events and the trace
     * sink receives them in round order.  The pool is per call,
     * never the caller's: nested callers (pipelines run as the items
     * of a sweep's pool) only oversubscribe the host.
     *
     * @param compiled artifact from compile()
     * @param runtimeSeed overrides the runtime noise seed; pass
     *        distinct values to simulate independent requests.  The
     *        default (0) derives the seed from the compiled options
     *        exactly as run() historically did.
     * @param trace optional issue/complete trace sink; only read on
     *        the ISA path (options.useIsa), ignored otherwise
     */
    AimReport execute(const CompiledModel &compiled,
                      uint64_t runtimeSeed = 0,
                      isa::TraceSink *trace = nullptr) const;

    /**
     * Offline stages only: quantized layers, clamp stats and the
     * baseline HR of the same pretrained weights.  Synthesis,
     * quantization and WDS each fan a model's layers out on a pool
     * the pass creates per call, with min(layers, hardware
     * concurrency) threads; every item writes only its own layer.
     */
    struct OfflineResult
    {
        std::vector<quant::FloatLayer> floatLayers;
        quant::QatResult quantized;
        double wdsClampedFraction = 0.0;
        /** Baseline ([64] quantization) HRaverage. */
        double baselineHrAverage = 0.0;
        /** Baseline HRmax. */
        double baselineHrMax = 0.0;
    };
    OfflineResult runOffline(const workload::ModelSpec &model,
                             const AimOptions &opts) const;

    const pim::PimConfig &pimConfig() const { return cfg; }
    const power::Calibration &calibration() const { return cal; }

  private:
    pim::PimConfig cfg;
    power::Calibration cal;
};

} // namespace aim

#endif // AIM_AIM_AIM_HH
