#include "aim/Aim.hh"

#include <algorithm>
#include <cmath>

#include "exec/ExecPool.hh"
#include "isa/Engine.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "quant/Wds.hh"
#include "sim/Compiler.hh"
#include "util/Logging.hh"
#include "workload/WeightSynth.hh"

namespace aim
{

AimOptions
AimOptions::dvfsBaseline()
{
    AimOptions o;
    o.useLhr = false;
    o.useWds = false;
    o.useBooster = false;
    o.mapper = mapping::MapperKind::Sequential;
    return o;
}

std::string
validateOptions(const AimOptions &opts)
{
    if (opts.bits < 2 || opts.bits > 16)
        return util::detail::concat(
            "bits must be in [2, 16], got ", opts.bits);
    if (opts.useWds) {
        if (opts.wdsDelta <= 0 ||
            (opts.wdsDelta & (opts.wdsDelta - 1)) != 0)
            return util::detail::concat(
                "wdsDelta must be a positive power of two (the shift "
                "compensator multiplies by bit-shifting), got ",
                opts.wdsDelta);
        if (opts.wdsDelta >= (1 << (opts.bits - 1)))
            return util::detail::concat(
                "wdsDelta ", opts.wdsDelta,
                " overflows the signed INT", opts.bits,
                " range; maximum is ", (1 << (opts.bits - 1)) / 2);
    }
    if (!(opts.workScale > 0.0) || opts.workScale > 1.0)
        return util::detail::concat(
            "workScale must be in (0, 1], got ", opts.workScale);
    if (opts.useLhr && opts.lambda < 0.0)
        return util::detail::concat(
            "lambda must be non-negative, got ", opts.lambda);
    if (opts.useBooster && opts.beta < 1)
        return util::detail::concat(
            "beta must be at least 1 (Algorithm-2 window), got ",
            opts.beta);
    if (opts.irBackend != power::IrBackendKind::Analytic &&
        opts.irBackend != power::IrBackendKind::Mesh &&
        opts.irBackend != power::IrBackendKind::Transient)
        return util::detail::concat(
            "irBackend must be Analytic, Mesh or Transient, got ",
            static_cast<int>(opts.irBackend));
    if (opts.irBackend == power::IrBackendKind::Transient) {
        if (!(opts.transientDecapNf > 0.0))
            return util::detail::concat(
                "transientDecapNf must be positive (the transient "
                "backend integrates an RC mesh), got ",
                opts.transientDecapNf);
        if (opts.transientDtNs < 0.0)
            return util::detail::concat(
                "transientDtNs must be non-negative (the "
                "implicit-Euler window step; 0 derives the step from "
                "the group frequency), got ",
                opts.transientDtNs);
    }
    if (opts.isaSchedule && !opts.useIsa)
        return "isaSchedule requires useIsa (the scheduler "
               "reorders the lowered instruction program)";
    // Negative isaLoadUsPerMword / isaRetuneUs are the "derive from
    // the serving layer" sentinel, not an error: compiles resolve
    // them through resolvedIsa*() and the serving engines overwrite
    // them with their FleetConfig reload/retune calibration.
    return {};
}

double
resolvedIsaLoadUsPerMword(const AimOptions &opts)
{
    return opts.isaLoadUsPerMword >= 0.0 ? opts.isaLoadUsPerMword
                                         : kDefaultIsaLoadUsPerMword;
}

double
resolvedIsaRetuneUs(const AimOptions &opts)
{
    return opts.isaRetuneUs >= 0.0 ? opts.isaRetuneUs
                                   : kDefaultIsaRetuneUs;
}

sim::RunConfig
runConfigFor(const AimOptions &opts)
{
    sim::RunConfig rcfg;
    rcfg.useBooster = opts.useBooster;
    rcfg.boost.beta = opts.beta;
    rcfg.boost.mode = opts.mode;
    rcfg.boost.aggressiveAdjustment = opts.aggressiveAdjustment;
    rcfg.mapper = opts.mapper;
    rcfg.irBackend = opts.irBackend;
    rcfg.transientDecapNf = opts.transientDecapNf;
    rcfg.transientDtNs = opts.transientDtNs;
    rcfg.seed = opts.seed ^ 0x9e3779b9ULL;
    return rcfg;
}

namespace
{

/** aim_fatal on invalid options, quoting the offending value. */
void
checkOptions(const AimOptions &opts)
{
    const std::string problem = validateOptions(opts);
    if (!problem.empty())
        aim_fatal("invalid AimOptions: ", problem);
}

} // namespace

double
CompiledModel::scaledMacs() const
{
    double macs = 0.0;
    for (const auto &round : rounds)
        for (const auto &task : round.tasks)
            macs += static_cast<double>(task.macs);
    return macs;
}

AimPipeline::AimPipeline(const pim::PimConfig &cfg,
                         const power::Calibration &cal)
    : cfg(cfg), cal(cal)
{
}

AimPipeline::OfflineResult
AimPipeline::runOffline(const workload::ModelSpec &model,
                        const AimOptions &opts) const
{
    checkOptions(opts);
    OfflineResult out;
    workload::SynthConfig synth;
    synth.seed = opts.seed;
    out.floatLayers = workload::synthesizeWeights(model, synth);

    // The baseline ([64] quantization) of the pretrained weights:
    // with LHR off it is the offline quantization itself, read
    // before WDS; with LHR on it quantizes the layers before QAT
    // moves them (no layer trains, so it writes no weight).
    const auto read_baseline = [&out](const quant::QatResult &base) {
        out.baselineHrAverage = base.hrAverage();
        out.baselineHrMax = base.hrMax();
    };
    if (opts.useLhr) {
        read_baseline(
            quant::quantizeBaseline(out.floatLayers, opts.bits));
        quant::QatConfig qcfg;
        qcfg.bits = opts.bits;
        qcfg.lambda = opts.lambda;
        qcfg.seed = opts.seed ^ 0x5bd1e995ULL;
        out.quantized = quant::QatTrainer(qcfg).run(out.floatLayers);
    } else {
        out.quantized =
            quant::quantizeBaseline(out.floatLayers, opts.bits);
        read_baseline(out.quantized);
    }

    if (opts.useWds) {
        // One layer per item; the shift's statistics carry each
        // layer's refreshed HR.
        auto &q = out.quantized;
        std::vector<quant::WdsStats> stats(q.layers.size());
        const long n = static_cast<long>(stats.size());
        exec::ExecPool pool(exec::ExecPool::threadsFor(n));
        pool.parallelFor(n, [&](long i) {
            stats[i] = quant::applyWds(q.layers[i], opts.wdsDelta);
        });
        size_t clamped = 0;
        size_t total = 0;
        for (size_t i = 0; i < stats.size(); ++i) {
            clamped += stats[i].clamped;
            total += stats[i].total;
            q.layerHr[i] = stats[i].hrAfter;
        }
        out.wdsClampedFraction =
            total > 0 ? static_cast<double>(clamped) / total : 0.0;
    }
    return out;
}

CompiledModel
AimPipeline::compile(const workload::ModelSpec &model,
                     const AimOptions &opts) const
{
    checkOptions(opts);
    CompiledModel out;
    out.modelName = model.name;
    out.options = opts;
    out.stream = model.stream;

    // Offline software passes.
    OfflineResult offline = runOffline(model, opts);
    out.hrAverage = offline.quantized.hrAverage();
    out.hrMax = offline.quantized.hrMax();
    out.baselineHrAverage = offline.baselineHrAverage;
    out.baselineHrMax = offline.baselineHrMax;
    out.wdsClampedFraction = offline.wdsClampedFraction;

    // Accuracy proxy (runtime-independent, so owned by the artifact).
    workload::AccuracyExtras extras;
    extras.wdsClampedFraction = offline.wdsClampedFraction;
    out.accuracy = workload::evaluateAccuracy(
        model, offline.quantized, offline.floatLayers, extras);

    // Tile into rounds and scale to the simulated work fraction.
    sim::CompilerConfig ccfg;
    ccfg.seed = opts.seed ^ 0xc2b2ae35ULL;
    out.rounds =
        sim::compileModel(model, offline.quantized.layers, cfg, ccfg);
    if (opts.workScale < 1.0) {
        for (auto &round : out.rounds)
            for (auto &task : round.tasks)
                task.macs = std::max<long>(
                    static_cast<long>(task.macs * opts.workScale),
                    static_cast<long>(cfg.macsPerMacroPerPass()));
    }

    // ISA path: lower the (already scaled) rounds to the instruction
    // Program the engine executes, with the fusion peephole applied.
    // RETUNE only exists where a booster would actually retune.
    if (opts.useIsa) {
        isa::LowerOptions lopts;
        lopts.emitRetune = opts.useBooster;
        if (opts.isaSchedule) {
            // us per Mword -> ns per word: the per-Set share of the
            // serving layer's reload/retune charges at instruction
            // grain.
            lopts.loadNsPerWord =
                resolvedIsaLoadUsPerMword(opts) * 1000.0 / 1e6;
            lopts.retuneNs = resolvedIsaRetuneUs(opts) * 1000.0;
        }
        auto program = std::make_shared<isa::Program>(
            isa::lower(out.rounds, cfg, lopts));
        isa::fuseMacShift(*program);
        if (opts.isaSchedule)
            out.schedule = std::make_shared<isa::Schedule>(
                isa::scheduleProgram(*program));
        out.program = std::move(program);
    }
    return out;
}

AimReport
AimPipeline::execute(const CompiledModel &compiled,
                     uint64_t runtime_seed,
                     isa::TraceSink *trace) const
{
    const AimOptions &opts = compiled.options;
    AimReport rep;
    rep.hrAverage = compiled.hrAverage;
    rep.hrMax = compiled.hrMax;
    rep.baselineHrAverage = compiled.baselineHrAverage;
    rep.baselineHrMax = compiled.baselineHrMax;
    rep.wdsClampedFraction = compiled.wdsClampedFraction;
    rep.accuracy = compiled.accuracy;

    sim::RunConfig rcfg = runConfigFor(opts);
    if (runtime_seed != 0)
        rcfg.seed = runtime_seed;
    // The toggle statistics next to the rounds' mappings, then the
    // rounds, run on a pool this call owns; the rounds merge in round
    // order, bit-identically (a trace included).
    exec::ExecPool pool(exec::ExecPool::threadsFor(
        static_cast<long>(compiled.rounds.size())));
    if (opts.useIsa) {
        aim_assert(compiled.program,
                   "useIsa artifact of ", compiled.modelName,
                   " carries no lowered program");
        isa::Engine engine(cfg, cal, rcfg);
        const isa::EngineReport er = engine.run(
            *compiled.program, compiled.stream, rcfg.seed, nullptr,
            trace, compiled.schedule.get(), &pool);
        rep.run = er.run;
        rep.isaInstructions = er.decoded;
        rep.isaFusedMacs = er.fusedMacs;
        rep.isaTailIdleNs = er.tailIdleNs;
        rep.isaInOrderMakespanNs = er.inOrderMakespanNs;
        rep.isaScheduledMakespanNs = er.scheduledMakespanNs;
        rep.isaScheduleSavedNs = er.scheduleSavedNs;
    } else {
        sim::Runtime runtime(cfg, cal, rcfg);
        rep.run = runtime.run(compiled.rounds, compiled.stream,
                              rcfg.seed, nullptr, &pool);
    }

    const power::IrModel ir(cal);
    rep.irMitigationVsSignoff =
        1.0 - rep.run.irWorstMv / ir.signoffWorstMv();
    rep.efficiencyGain =
        rep.run.macroPowerMw > 0.0
            ? cal.macroPowerBaselineMw / rep.run.macroPowerMw
            : 0.0;
    return rep;
}

AimReport
AimPipeline::run(const workload::ModelSpec &model,
                 const AimOptions &opts) const
{
    return execute(compile(model, opts));
}

} // namespace aim
