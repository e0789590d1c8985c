/**
 * @file
 * Google-benchmark microbenchmarks of the hot simulator kernels:
 * the bit-serial MAC + Rtog engine, the HR kernel, the normal
 * sampler, toggle-statistics estimation, Equation 5's interpolated
 * HR, the PDN mesh factor, solve and transient step, the window loop
 * serially and round-parallel on a pool, one pipeline execute and one
 * compile, the runtime environment build, the annealing mapper, and the ISA front
 * end (lowering, scoreboard issue walk, list scheduling).
 */

#include <benchmark/benchmark.h>

#include "BenchCommon.hh"
#include "aim/Aim.hh"
#include "exec/ExecPool.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "isa/Scoreboard.hh"
#include "mapping/Mappers.hh"
#include "pim/Macro.hh"
#include "pim/ToggleModel.hh"
#include "power/PdnMesh.hh"
#include "quant/Hamming.hh"
#include "quant/Lhr.hh"
#include "sim/Runtime.hh"
#include "util/Rng.hh"
#include "workload/ModelZoo.hh"

using namespace aim;

namespace
{

void
BM_BitSerialMacroPass(benchmark::State &state)
{
    pim::PimConfig cfg;
    cfg.rows = static_cast<int>(state.range(0));
    cfg.banks = 32;
    pim::Macro macro(cfg);
    util::Rng rng(1);
    std::vector<int32_t> w(
        static_cast<size_t>(cfg.rows) * cfg.banks);
    for (auto &v : w)
        v = static_cast<int32_t>(rng.uniformInt(-128, 127));
    macro.loadWeights(w, cfg.rows, cfg.banks);
    std::vector<int32_t> x(cfg.rows);
    for (auto &v : x)
        v = static_cast<int32_t>(rng.uniformInt(-128, 127));
    for (auto _ : state) {
        auto out = macro.run(x, cfg.rows);
        benchmark::DoNotOptimize(out.outputs.data());
    }
    state.SetItemsProcessed(state.iterations() * cfg.rows *
                            cfg.banks);
}
BENCHMARK(BM_BitSerialMacroPass)->Arg(64)->Arg(128);

void
BM_HammingRate(benchmark::State &state)
{
    util::Rng rng(2);
    std::vector<int32_t> v(state.range(0));
    for (auto &x : v)
        x = static_cast<int32_t>(rng.uniformInt(-128, 127));
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant::hammingRate(v, 8));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HammingRate)->Arg(1 << 12)->Arg(1 << 16);

void
BM_RngNormal(benchmark::State &state)
{
    // One standard normal draw: the Gaussian noise behind QAT, the
    // Rtog samples, the synthetic activations and the droop monitors.
    util::Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.normal());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormal);

void
BM_EstimateToggleStats(benchmark::State &state)
{
    // Toggle statistics of a zoo stream at the runtime's default
    // estimate (128 rows x 200 vectors): stream generation plus
    // per-cycle toggle counting.  Arg 0 = conv, 1 = transformer.
    const bool conv = state.range(0) == 0;
    const pim::StreamSpec spec =
        conv ? workload::resnet18().stream : workload::gpt2().stream;
    for (auto _ : state) {
        const auto stats = pim::estimateToggleStats(spec, 128);
        benchmark::DoNotOptimize(stats.mean);
    }
    state.SetLabel(conv ? "conv" : "transformer");
}
BENCHMARK(BM_EstimateToggleStats)->Arg(0)->Arg(1);

void
BM_InterpolatedHr(benchmark::State &state)
{
    // Equation 5 (value and slope) over a layer's scaled weights, the
    // per-weight, per-epoch work of LHR QAT; Arg is the bit width.
    const int q = static_cast<int>(state.range(0));
    util::Rng rng(3);
    std::vector<double> u(4096);
    for (auto &x : u)
        x = rng.normal(0.0, 0.3 * static_cast<double>(util::intMax(q)));
    for (auto _ : state) {
        double acc = 0.0;
        for (double x : u) {
            const quant::HrInterp h = quant::interpolatedHr(x, q);
            acc += h.value + h.slope;
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * u.size());
}
BENCHMARK(BM_InterpolatedHr)->Arg(4)->Arg(8)->Arg(16);

void
BM_PdnMeshSolve(benchmark::State &state)
{
    // A DC solve through the mesh's cached factor (built by the
    // warm-up solve, outside the timed loop): one forward and one
    // back sweep of row-block products plus the right-hand side and
    // bump observables (16 is the droop backends' mesh).
    power::PdnMeshConfig cfg;
    cfg.size = static_cast<int>(state.range(0));
    power::PdnMesh mesh(cfg);
    mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                      cfg.size / 2, 3.0);
    benchmark::DoNotOptimize(mesh.solve().voltage.data());
    for (auto _ : state) {
        auto sol = mesh.solve();
        benchmark::DoNotOptimize(sol.voltage.data());
    }
}
BENCHMARK(BM_PdnMeshSolve)->Arg(16)->Arg(24)->Arg(48);

void
BM_PdnMeshFactor(benchmark::State &state)
{
    // The one-time cost every solve amortizes: the inverse Schur
    // complement of every grid row of the DC matrix, paid once per
    // mesh or mesh backend (16 is the backends' default mesh, 48 the
    // solver default).
    power::PdnMeshConfig cfg;
    cfg.size = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const power::PdnStepFactor f(cfg, power::kPdnDcStep);
        benchmark::DoNotOptimize(&f);
    }
}
BENCHMARK(BM_PdnMeshFactor)->Arg(16)->Arg(24)->Arg(48);

void
BM_RuntimeWindowLoop(benchmark::State &state)
{
    // The chip runtime's window engine (sim/WindowKernel).  Args 0-2
    // run many small rounds on each droop backend: they cover the
    // per-Runtime vmin hoist and the reused per-window buffers.  Arg 3
    // runs YOLOv5's first compiled round under the default options
    // (HR-aware mapping, booster, Analytic droop), the longest round
    // of an aim_cli-style execute; its artifact is compiled once per
    // process.  Items are windows.
    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    sim::RunConfig rcfg;
    std::vector<sim::Round> rounds;
    pim::StreamSpec stream;
    if (state.range(0) == 3) {
        static const CompiledModel art =
            AimPipeline(cfg, cal).compile(
                workload::modelByName("YOLOv5"), AimOptions{});
        rcfg = runConfigFor(art.options);
        rounds.push_back(art.rounds.front());
        stream = art.stream;
    } else {
        rcfg.mapper = mapping::MapperKind::Sequential;
        rcfg.irBackend = state.range(0) == 0
                             ? power::IrBackendKind::Analytic
                         : state.range(0) == 1
                             ? power::IrBackendKind::Mesh
                             : power::IrBackendKind::Transient;
        rounds.assign(16,
                      aim::bench::syntheticRound(0.30, 16, 2'000'000));
        stream.density = 0.55;
        stream.nonNegative = true;
    }
    const sim::Runtime rt(cfg, cal, rcfg);
    long windows = 0;
    for (auto _ : state) {
        const auto rep = rt.run(rounds, stream);
        windows = rep.usefulWindows + rep.stallWindows;
        benchmark::DoNotOptimize(windows);
    }
    state.SetItemsProcessed(state.iterations() * windows);
    state.SetLabel(state.range(0) == 0   ? "analytic"
                   : state.range(0) == 1 ? "mesh"
                   : state.range(0) == 2 ? "transient"
                                         : "YOLOv5 round 0");
}
BENCHMARK(BM_RuntimeWindowLoop)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_RuntimeRunPooled(benchmark::State &state)
{
    // Round-parallel execution: Runtime::run's independent rounds on
    // a pool of Arg threads (1 = the serial walk), Transient backend.
    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    sim::RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = power::IrBackendKind::Transient;
    const sim::Runtime rt(cfg, cal, rcfg);
    const std::vector<sim::Round> rounds(
        16, aim::bench::syntheticRound(0.30, 16, 2'000'000));
    pim::StreamSpec stream;
    stream.density = 0.55;
    stream.nonNegative = true;
    exec::ExecPool pool(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const auto rep =
            rt.run(rounds, stream, rcfg.seed, nullptr, &pool);
        benchmark::DoNotOptimize(rep.wallTimeNs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(rounds.size()));
}
BENCHMARK(BM_RuntimeRunPooled)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void
BM_AimExecute(benchmark::State &state)
{
    // One aim_cli-style execute of ResNet18 under the default options
    // (HR-aware mapper, booster, Analytic droop): its environment,
    // toggle statistics and rounds on the pool execute creates per
    // call.  Real time, because the work runs on that pool's workers.
    // Compiled once per process: the benchmark body is re-entered
    // while the library sizes its iteration count.
    static const AimPipeline pipe(pim::PimConfig{},
                                  power::defaultCalibration());
    static const CompiledModel art =
        pipe.compile(workload::modelByName("ResNet18"), AimOptions{});
    uint64_t seed = 1;
    for (auto _ : state) {
        const AimReport rep = pipe.execute(art, seed++);
        benchmark::DoNotOptimize(rep.run.wallTimeNs);
    }
}
BENCHMARK(BM_AimExecute)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_AimCompile(benchmark::State &state)
{
    // One cold AimPipeline::compile.  /0: ResNet18 under the default
    // options (LHR QAT, WDS, the aim_cli flow).  /1: GPT2 under the
    // serving options of perfbench's exact_hetero (LHR off, workScale
    // 0.05, Sequential mapper, Transient droop, the scheduled ISA
    // path).  Real time, because synthesis, quantization, WDS and
    // tiling each run on a pool the compile creates.
    const AimPipeline pipe(pim::PimConfig{}, power::defaultCalibration());
    AimOptions opts;
    std::string name = "ResNet18";
    if (state.range(0) == 1) {
        name = "GPT2";
        opts.useLhr = false;
        opts.workScale = 0.05;
        opts.mapper = mapping::MapperKind::Sequential;
        opts.irBackend = power::IrBackendKind::Transient;
        opts.useIsa = true;
        opts.isaSchedule = true;
    }
    const workload::ModelSpec model = workload::modelByName(name);
    for (auto _ : state) {
        const CompiledModel c = pipe.compile(model, opts);
        benchmark::DoNotOptimize(c.rounds.data());
    }
}
BENCHMARK(BM_AimCompile)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_RuntimeEnvBuild(benchmark::State &state)
{
    // The set-up every execute, gang stage runtime and serving class
    // pays: V-f table, power model, timing thresholds and the
    // Analytic droop backend.
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const sim::RunConfig rcfg;
    for (auto _ : state) {
        const sim::RuntimeEnv env(cfg, cal, rcfg);
        benchmark::DoNotOptimize(env.vminByF.size());
    }
}
BENCHMARK(BM_RuntimeEnvBuild)->Unit(benchmark::kMicrosecond);

void
BM_PdnMeshTransientStep(benchmark::State &state)
{
    // One implicit-Euler RC step per window is the transient droop
    // backend's hot loop (power/TransientBackend): one forward and
    // one back sweep of row-block products through the mesh's step
    // factor from the previous window's state (16 is the backend's
    // mesh).
    power::PdnMeshConfig cfg;
    cfg.size = static_cast<int>(state.range(0));
    cfg.bumpPitch = 4;
    cfg.decapFarad = 20e-9;
    cfg.bumpInductanceH = 200e-12;
    power::PdnMesh mesh(cfg);
    mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                      cfg.size / 2, 2.0);
    power::PdnTransientState st = mesh.transientInit(mesh.solve());
    double delta = 0.4;
    for (auto _ : state) {
        mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                          cfg.size / 2, delta);
        delta = -delta;
        mesh.stepTransient(2e-9, st);
        benchmark::DoNotOptimize(st.sol.voltage.data());
    }
}
BENCHMARK(BM_PdnMeshTransientStep)->Arg(16)->Arg(24)->Arg(48);

void
BM_HrAwareAnnealing(benchmark::State &state)
{
    // The HR-aware mapper (Algorithm 3).  Arg 0 anneals 48 synthetic
    // tasks in 6 Sets, which converges within a few steps; Arg 1
    // anneals ResNet18's first compiled round (64 tasks in 11 Sets)
    // with the objective and seeds of a default-option execute, which
    // runs to the step limit like the real rounds do.  The artifact
    // is compiled once per process.
    pim::PimConfig cfg;
    power::VfTable table(power::defaultCalibration());
    power::PowerModel pm(power::defaultCalibration());
    std::vector<mapping::Task> tasks;
    mapping::Objective objective = mapping::Objective::Sprint;
    uint64_t seed = 5;
    if (state.range(0) == 0) {
        util::Rng rng(7);
        for (int i = 0; i < 48; ++i) {
            mapping::Task t;
            t.layerName = "t";
            t.setId = i / 8;
            t.hr = rng.uniform(0.2, 0.6);
            t.macs = 1'000'000;
            tasks.push_back(t);
        }
    } else {
        static const CompiledModel art =
            AimPipeline(cfg, power::defaultCalibration())
                .compile(workload::modelByName("ResNet18"),
                         AimOptions{});
        const sim::RunConfig rcfg = runConfigFor(art.options);
        tasks = art.rounds.front().tasks;
        objective = rcfg.boost.mode == booster::BoostMode::Sprint
                        ? mapping::Objective::Sprint
                        : mapping::Objective::LowPower;
        seed = rcfg.seed + 1; // round 0's seed
    }
    const mapping::MappingEvaluator eval(cfg, table, pm, objective, seed);
    for (auto _ : state) {
        auto m = mapping::mapWith(mapping::MapperKind::HrAware, tasks,
                                  cfg, eval, seed);
        benchmark::DoNotOptimize(m.taskOfMacro.data());
    }
    state.SetLabel(state.range(0) == 0 ? "synthetic" : "ResNet18 round 0");
}
BENCHMARK(BM_HrAwareAnnealing)->Arg(0)->Arg(1);

/** Many-round synthetic program for the ISA front-end benches. */
isa::Program
benchProgram(int rounds, bool costed)
{
    std::vector<sim::Round> rs;
    for (int r = 0; r < rounds; ++r)
        rs.push_back(
            aim::bench::syntheticRound(0.30, 16, 2'000'000));
    pim::PimConfig cfg;
    isa::LowerOptions lopts;
    if (costed) {
        lopts.loadNsPerWord = 0.008;
        lopts.retuneNs = 500.0;
    }
    isa::Program p = isa::lower(rs, cfg, lopts);
    isa::fuseMacShift(p);
    return p;
}

void
BM_IsaLower(benchmark::State &state)
{
    // Lowering + fusion over a many-round workload: the compile-side
    // cost the serving layer pays once per cached model.
    std::vector<sim::Round> rs;
    for (long r = 0; r < state.range(0); ++r)
        rs.push_back(
            aim::bench::syntheticRound(0.30, 16, 2'000'000));
    pim::PimConfig cfg;
    isa::LowerOptions lopts;
    lopts.loadNsPerWord = 0.008;
    lopts.retuneNs = 500.0;
    long instrs = 0;
    for (auto _ : state) {
        isa::Program p = isa::lower(rs, cfg, lopts);
        isa::fuseMacShift(p);
        instrs = static_cast<long>(p.code.size());
        benchmark::DoNotOptimize(p.code.data());
    }
    state.SetItemsProcessed(state.iterations() * instrs);
}
BENCHMARK(BM_IsaLower)->Arg(16)->Arg(64);

void
BM_ScoreboardIssue(benchmark::State &state)
{
    // Full pending -> issued -> completed walk of a lowered program:
    // scan for an issuable instruction, issue, complete, repeat.
    // With the O(1) hazard checks (per-Set lanes + round counters)
    // the walk is linear in program size; Arg selects the policy
    // (0 = per-round RoundOrder blocks, the engine's machine;
    // 1 = whole-program Pipelined, the scheduler's legality oracle).
    const isa::Program p = benchProgram(16, false);
    const bool pipelined = state.range(0) == 1;
    for (auto _ : state) {
        long issued = 0;
        auto walk = [&](isa::Scoreboard &sb, size_t begin,
                        size_t end) {
            while (!sb.allCompleted()) {
                for (size_t i = begin; i < end; ++i) {
                    if (!sb.issuable(i))
                        continue;
                    sb.issue(i);
                    sb.complete(i);
                    ++issued;
                }
            }
        };
        if (pipelined) {
            isa::Scoreboard sb(p,
                               isa::Scoreboard::Policy::Pipelined);
            walk(sb, 0, p.code.size());
        } else {
            for (const auto &span : p.roundSpan) {
                isa::Scoreboard sb(p.code, span.begin, span.end);
                walk(sb, span.begin, span.end);
            }
        }
        benchmark::DoNotOptimize(issued);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.code.size()));
    state.SetLabel(pipelined ? "pipelined" : "round-order");
}
BENCHMARK(BM_ScoreboardIssue)->Arg(0)->Arg(1);

void
BM_IsaSchedule(benchmark::State &state)
{
    // List scheduling (strict + relaxed timing replays and the
    // slot sort) of a costed pre-lowered program.
    const isa::Program p = benchProgram(static_cast<int>(
                                            state.range(0)),
                                        true);
    for (auto _ : state) {
        isa::Schedule s = isa::scheduleProgram(p);
        benchmark::DoNotOptimize(s.order.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.code.size()));
}
BENCHMARK(BM_IsaSchedule)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
