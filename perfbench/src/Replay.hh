/**
 * @file
 * The traced replay: the library's compile and execute flows re-run
 * call by call through the layers' public functions, one span per
 * call.  Each replay mirrors its library counterpart exactly
 * (AimPipeline::compile, Runtime::run), so its output must be
 * bit-identical to the untraced call -- the benchmark checks that.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include "Spans.hh"
#include "aim/Aim.hh"

namespace perfbench
{

/** AimPipeline::compile on chip geometry @p cfg, one span per pass:
 * workload.synth, quant.qat (the deployed-weights quantizer: QAT with
 * LHR, or the baseline quantizer), quant.wds, quant.baseline,
 * workload.accuracy, sim.tile, isa.lower and isa.schedule. */
aim::CompiledModel replayCompile(const aim::pim::PimConfig &cfg,
                                 const aim::workload::ModelSpec &model,
                                 const aim::AimOptions &opts, Tracer &t);

/** The ISA half of AimPipeline::compile: lower + fuse @p artifact's
 * rounds under @p opts (isa.lower) and, with opts.isaSchedule,
 * list-schedule the program (isa.schedule). */
void replayLower(const aim::pim::PimConfig &cfg,
                 const aim::AimOptions &opts, Tracer &t,
                 aim::CompiledModel &artifact);

/** Field-by-field equality of two artifacts (rounds, HR, accuracy,
 * lowered program and schedule). */
bool sameArtifact(const aim::CompiledModel &a,
                  const aim::CompiledModel &b);

/**
 * Runtime::run(rounds, stream, seed) on @p env, one span per call:
 * pim.toggle, then per round mapping.map, sim.chipstate,
 * power.new_eval.<backend> and sim.window_loop with the per-window
 * droop folded into power.droop.<backend>.  @p windows (optional)
 * accumulates the windows stepped.
 */
aim::sim::RunReport replayRun(const aim::sim::RuntimeEnv &env,
                              const std::vector<aim::sim::Round> &rounds,
                              const aim::pim::StreamSpec &stream,
                              uint64_t seed, Tracer &t, long request,
                              long *windows = nullptr);

/** One request's execution replayed under an aim.execute span: the
 * RuntimeEnv build (sim.env) plus replayRun of @p artifact with
 * rcfg.seed -- the replay of Runtime construction + Runtime::run. */
aim::sim::RunReport replayExecute(const aim::pim::PimConfig &cfg,
                                  const aim::power::Calibration &cal,
                                  const aim::sim::RunConfig &rcfg,
                                  const aim::CompiledModel &artifact,
                                  Tracer &t, long request, long *windows);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
