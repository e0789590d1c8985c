#include "Replay.hh"

#include <algorithm>
#include <optional>

#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "quant/QatTrainer.hh"
#include "quant/Wds.hh"
#include "sim/ChipState.hh"
#include "sim/Compiler.hh"
#include "sim/WindowKernel.hh"
#include "workload/WeightSynth.hh"

namespace perfbench
{

using namespace aim;

CompiledModel
replayCompile(const pim::PimConfig &cfg,
              const workload::ModelSpec &model, const AimOptions &opts,
              Tracer &t)
{
    CompiledModel out;
    out.modelName = model.name;
    out.options = opts;
    out.stream = model.stream;

    workload::SynthConfig synth;
    synth.seed = opts.seed;
    std::vector<quant::FloatLayer> layers;
    {
        SpanScope s(t, "workload.synth");
        layers = workload::synthesizeWeights(model, synth);
    }
    quant::QatResult quantized;
    {
        SpanScope s(t, "quant.qat");
        if (opts.useLhr) {
            quant::QatConfig qcfg;
            qcfg.bits = opts.bits;
            qcfg.lambda = opts.lambda;
            qcfg.seed = opts.seed ^ 0x5bd1e995ULL;
            quantized = quant::QatTrainer(qcfg).run(layers);
        } else {
            quantized = quant::quantizeBaseline(layers, opts.bits);
        }
    }
    if (opts.useWds) {
        SpanScope s(t, "quant.wds");
        size_t clamped = 0;
        size_t total = 0;
        for (auto &layer : quantized.layers) {
            const auto stats = quant::applyWds(layer, opts.wdsDelta);
            clamped += stats.clamped;
            total += stats.total;
        }
        for (size_t i = 0; i < quantized.layers.size(); ++i)
            quantized.layerHr[i] = quantized.layers[i].hr();
        out.wdsClampedFraction =
            total > 0 ? static_cast<double>(clamped) / total : 0.0;
    }
    out.hrAverage = quantized.hrAverage();
    out.hrMax = quantized.hrMax();
    {
        std::vector<quant::FloatLayer> base_layers;
        {
            SpanScope s(t, "workload.synth");
            base_layers = workload::synthesizeWeights(model, synth);
        }
        SpanScope s(t, "quant.baseline");
        const auto base = quant::quantizeBaseline(base_layers, opts.bits);
        out.baselineHrAverage = base.hrAverage();
        out.baselineHrMax = base.hrMax();
    }
    {
        SpanScope s(t, "workload.accuracy");
        workload::AccuracyExtras extras;
        extras.wdsClampedFraction = out.wdsClampedFraction;
        out.accuracy =
            workload::evaluateAccuracy(model, quantized, layers, extras);
    }
    {
        SpanScope s(t, "sim.tile");
        sim::CompilerConfig ccfg;
        ccfg.seed = opts.seed ^ 0xc2b2ae35ULL;
        out.rounds =
            sim::compileModel(model, quantized.layers, cfg, ccfg);
        if (opts.workScale < 1.0)
            for (auto &round : out.rounds)
                for (auto &task : round.tasks)
                    task.macs = std::max<long>(
                        static_cast<long>(task.macs * opts.workScale),
                        static_cast<long>(cfg.macsPerMacroPerPass()));
    }
    if (opts.useIsa)
        replayLower(cfg, opts, t, out);
    return out;
}

void
replayLower(const pim::PimConfig &cfg, const AimOptions &opts, Tracer &t,
            CompiledModel &artifact)
{
    isa::LowerOptions lopts;
    lopts.emitRetune = opts.useBooster;
    if (opts.isaSchedule) {
        lopts.loadNsPerWord =
            resolvedIsaLoadUsPerMword(opts) * 1000.0 / 1e6;
        lopts.retuneNs = resolvedIsaRetuneUs(opts) * 1000.0;
    }
    std::shared_ptr<isa::Program> program;
    {
        SpanScope s(t, "isa.lower");
        program = std::make_shared<isa::Program>(
            isa::lower(artifact.rounds, cfg, lopts));
        isa::fuseMacShift(*program);
    }
    if (opts.isaSchedule) {
        SpanScope s(t, "isa.schedule");
        artifact.schedule = std::make_shared<isa::Schedule>(
            isa::scheduleProgram(*program));
    }
    artifact.program = std::move(program);
}

namespace
{

bool
sameRounds(const std::vector<sim::Round> &a,
           const std::vector<sim::Round> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t r = 0; r < a.size(); ++r) {
        const auto &ta = a[r].tasks;
        const auto &tb = b[r].tasks;
        if (ta.size() != tb.size())
            return false;
        for (size_t i = 0; i < ta.size(); ++i)
            if (ta[i].layerName != tb[i].layerName ||
                ta[i].type != tb[i].type || ta[i].setId != tb[i].setId ||
                ta[i].hr != tb[i].hr ||
                ta[i].inputDetermined != tb[i].inputDetermined ||
                ta[i].macs != tb[i].macs)
                return false;
    }
    return true;
}

bool
samePrograms(const isa::Program *a, const isa::Program *b)
{
    if (!a || !b)
        return a == b;
    if (a->code.size() != b->code.size() || a->fusedMacs != b->fusedMacs)
        return false;
    for (size_t i = 0; i < a->code.size(); ++i) {
        const auto &x = a->code[i];
        const auto &y = b->code[i];
        if (x.op != y.op || x.set != y.set || x.round != y.round ||
            x.windows != y.windows || x.weightWords != y.weightWords ||
            x.fused != y.fused || x.costNs != y.costNs ||
            x.dep0 != y.dep0 || x.dep1 != y.dep1)
            return false;
    }
    return true;
}

} // namespace

bool
sameArtifact(const CompiledModel &a, const CompiledModel &b)
{
    const bool same_schedule =
        (!a.schedule && !b.schedule) ||
        (a.schedule && b.schedule &&
         a.schedule->order == b.schedule->order);
    return a.modelName == b.modelName && a.hrAverage == b.hrAverage &&
           a.hrMax == b.hrMax &&
           a.baselineHrAverage == b.baselineHrAverage &&
           a.baselineHrMax == b.baselineHrMax &&
           a.wdsClampedFraction == b.wdsClampedFraction &&
           a.accuracy.metric == b.accuracy.metric &&
           a.accuracy.delta == b.accuracy.delta &&
           sameRounds(a.rounds, b.rounds) &&
           samePrograms(a.program.get(), b.program.get()) &&
           same_schedule;
}

namespace
{

/** Forwards every window to the real evaluator and times it. */
class TimedEval final : public power::IrEval
{
  public:
    explicit TimedEval(power::IrEval &inner) : inner(inner) {}

    void
    window(const std::vector<power::GroupWindow> &groups,
           util::Rng &rng, std::vector<double> &drop_mv) override
    {
        const auto t0 = Clock::now();
        inner.window(groups, rng, drop_mv);
        totalUs += std::chrono::duration<double, std::micro>(
                       Clock::now() - t0)
                       .count();
        ++calls;
    }

    double totalUs = 0.0;
    long calls = 0;

  private:
    power::IrEval &inner;
};

sim::RunReport
replayRound(const sim::RuntimeEnv &env, const sim::Round &round,
            const pim::ToggleStats &toggles, uint64_t round_seed,
            Tracer &t, long request, long *windows)
{
    sim::RunReport rep;
    if (round.tasks.empty())
        return rep;
    util::Rng rng(round_seed);
    const char *backend = power::irBackendName(env.rcfg.irBackend);

    mapping::Mapping map;
    {
        SpanScope s(t, "mapping.map", request);
        const auto objective =
            env.rcfg.boost.mode == booster::BoostMode::Sprint
                ? mapping::Objective::Sprint
                : mapping::Objective::LowPower;
        mapping::MappingEvaluator eval(env.cfg, env.table, env.pm,
                                       objective, round_seed);
        map = mapping::mapWith(env.rcfg.mapper, round.tasks, env.cfg,
                               eval, round_seed);
    }
    std::optional<sim::ChipState> state;
    {
        SpanScope s(t, "sim.chipstate", request);
        state.emplace(env.cfg, env.cal, env.table, env.rcfg.boost,
                      env.rcfg.useBooster, round, map, toggles, rng);
    }
    rep.totalMacs = state->totalMacs;
    std::unique_ptr<power::IrEval> droop;
    {
        SpanScope s(t, std::string("power.new_eval.") + backend, request);
        droop = env.backend->newEval(state->activeMacroIds());
    }
    TimedEval timed(*droop);
    sim::WindowKernel kernel(env.cfg, env.cal, env.rcfg.useBooster,
                             env.pm, env.vminByF, env.recomputeStall,
                             env.switchStall);
    sim::WindowStats stats;
    {
        SpanScope s(t, "sim.window_loop", request);
        long window = 0;
        for (; window < env.rcfg.maxWindowsPerRound &&
               state->anyRemaining();
             ++window)
            kernel.step(*state, timed, rng, rep, stats);
        if (windows)
            *windows += window;
        t.aggregate(std::string("power.droop.") + backend, timed.totalUs,
                    timed.calls, request);
    }
    sim::finalizeRoundReport(*state, stats, env, rep);
    return rep;
}

} // namespace

sim::RunReport
replayRun(const sim::RuntimeEnv &env,
          const std::vector<sim::Round> &rounds,
          const pim::StreamSpec &stream, uint64_t seed, Tracer &t,
          long request, long *windows)
{
    pim::ToggleStats toggles;
    {
        SpanScope s(t, "pim.toggle", request);
        toggles = pim::estimateToggleStats(stream, env.cfg.rows, 200,
                                           seed);
    }
    std::vector<sim::RunReport> parts;
    parts.reserve(rounds.size());
    for (const auto &round : rounds)
        parts.push_back(
            replayRound(env, round, toggles, ++seed, t, request, windows));
    return sim::mergeReports(parts);
}

sim::RunReport
replayExecute(const pim::PimConfig &cfg, const power::Calibration &cal,
              const sim::RunConfig &rcfg, const CompiledModel &artifact,
              Tracer &t, long request, long *windows)
{
    SpanScope s(t, "aim.execute", request);
    std::optional<sim::RuntimeEnv> env;
    {
        SpanScope e(t, "sim.env", request);
        env.emplace(cfg, cal, rcfg);
    }
    return replayRun(*env, artifact.rounds, artifact.stream, rcfg.seed, t,
                     request, windows);
}

} // namespace perfbench
