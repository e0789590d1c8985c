/**
 * @file
 * Round-parallel execution: Runtime::run and isa::Engine::run on an
 * exec::ExecPool of 1, 2 and 4 threads must reproduce the serial run
 * field for field -- the per-round latency vector, the per-opcode
 * issue counters, the tail-idle budget and both makespans included --
 * on every droop backend and on zoo artifacts with and without a
 * Schedule.  A carry chains the rounds, so it makes the run ignore
 * the pool; a traced engine run pools and still writes the serial
 * trace.  AimPipeline::execute, which pools its rounds itself, must
 * equal the serial runs of its artifact.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "aim/Aim.hh"
#include "exec/ExecPool.hh"
#include "isa/Engine.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "workload/ModelZoo.hh"

using namespace aim;

namespace
{

using test::convRound;
using test::expectSameEngine;
using test::expectSameRun;

constexpr int kPoolThreads[] = {1, 2, 4};

/** Uneven rounds, an empty one among them. */
std::vector<sim::Round>
unevenRounds()
{
    return {convRound(0.30, 16, 20'000'000), sim::Round{},
            convRound(0.45, 8, 12'000'000, true),
            convRound(0.55, 16, 6'000'000),
            convRound(0.20, 4, 9'000'000)};
}

sim::RunConfig
backendConfig(power::IrBackendKind kind)
{
    sim::RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = kind;
    rcfg.seed = 77;
    return rcfg;
}

/** Lowered and fused; @p costed charges the serving-grade load and
 * retune costs, so a Schedule re-times the trace. */
isa::Program
lowered(const std::vector<sim::Round> &rounds,
        const sim::RunConfig &rcfg, bool costed = false)
{
    isa::LowerOptions lopts;
    lopts.emitRetune = rcfg.useBooster;
    if (costed) {
        lopts.loadNsPerWord = 8.0 * 1000.0 / 1e6; // AimOptions default
        lopts.retuneNs = 0.5 * 1000.0;
    }
    isa::Program program = isa::lower(rounds, pim::PimConfig{}, lopts);
    isa::fuseMacShift(program);
    return program;
}

constexpr power::IrBackendKind kBackends[] = {
    power::IrBackendKind::Analytic, power::IrBackendKind::Mesh,
    power::IrBackendKind::Transient};

} // namespace

TEST(PooledRun, RuntimeMatchesSerialOnEveryBackend)
{
    // The Sequential mapper, then the HR-aware annealer under both
    // booster modes: the pool runs the front job (toggle statistics
    // and every round's mapping) and then the rounds.
    struct MapperCase
    {
        const char *name;
        mapping::MapperKind mapper;
        booster::BoostMode mode;
    };
    constexpr MapperCase kMappers[] = {
        {"Sequential", mapping::MapperKind::Sequential,
         booster::BoostMode::Sprint},
        {"HR-aware Sprint", mapping::MapperKind::HrAware,
         booster::BoostMode::Sprint},
        {"HR-aware LowPower", mapping::MapperKind::HrAware,
         booster::BoostMode::LowPower},
    };
    const auto rounds = unevenRounds();
    for (const auto kind : kBackends)
        for (const MapperCase &m : kMappers) {
            sim::RunConfig rcfg = backendConfig(kind);
            rcfg.mapper = m.mapper;
            rcfg.boost.mode = m.mode;
            const sim::Runtime rt(pim::PimConfig{},
                                  power::defaultCalibration(), rcfg);
            const auto want = rt.run(rounds, test::stream(), 77);
            for (const int threads : kPoolThreads) {
                SCOPED_TRACE(std::string(power::irBackendName(kind)) +
                             ", " + m.name + ", " +
                             std::to_string(threads) + " threads");
                exec::ExecPool pool(threads);
                expectSameRun(
                    rt.run(rounds, test::stream(), 77, nullptr, &pool),
                    want);
            }
        }
}

TEST(PooledRun, EngineMatchesSerialOnEveryBackend)
{
    const auto rounds = unevenRounds();
    for (const auto kind : kBackends) {
        const sim::RunConfig rcfg = backendConfig(kind);
        const isa::Program program = lowered(rounds, rcfg);
        const isa::Schedule schedule = isa::scheduleProgram(program);
        const isa::Engine engine(pim::PimConfig{},
                                 power::defaultCalibration(), rcfg);
        for (const isa::Schedule *sched : {
                 static_cast<const isa::Schedule *>(nullptr),
                 &schedule}) {
            const auto want = engine.run(program, test::stream(), 77,
                                         nullptr, nullptr, sched);
            for (const int threads : kPoolThreads) {
                SCOPED_TRACE(std::string(power::irBackendName(kind)) +
                             (sched ? ", scheduled, " : ", ") +
                             std::to_string(threads) + " threads");
                exec::ExecPool pool(threads);
                expectSameEngine(engine.run(program, test::stream(), 77,
                                            nullptr, nullptr, sched,
                                            &pool),
                                 want);
            }
        }
    }
}

TEST(PooledRun, ZooArtifactsWithAndWithoutScheduleMatchSerial)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const AimPipeline pipe(cfg, cal);
    for (const bool scheduled : {false, true}) {
        AimOptions opts = test::fastServeOptions();
        opts.useIsa = true;
        opts.isaSchedule = scheduled;
        const CompiledModel art =
            pipe.compile(workload::modelByName("ResNet18"), opts);
        ASSERT_NE(art.program, nullptr);
        ASSERT_EQ(art.schedule != nullptr, scheduled);
        ASSERT_GT(art.rounds.size(), 1u);
        const sim::RunConfig rcfg = runConfigFor(opts);
        const sim::Runtime rt(cfg, cal, rcfg);
        const isa::Engine engine(cfg, cal, rcfg);
        const auto want_rt = rt.run(art.rounds, art.stream, 4242);
        const auto want_en =
            engine.run(*art.program, art.stream, 4242, nullptr, nullptr,
                       art.schedule.get());
        for (const int threads : kPoolThreads) {
            SCOPED_TRACE(std::string(scheduled ? "scheduled, " : "") +
                         std::to_string(threads) + " threads");
            exec::ExecPool pool(threads);
            expectSameRun(rt.run(art.rounds, art.stream, 4242, nullptr,
                                 &pool),
                          want_rt);
            expectSameEngine(engine.run(*art.program, art.stream, 4242,
                                        nullptr, nullptr,
                                        art.schedule.get(), &pool),
                             want_en);
        }
    }
}

TEST(PooledRun, CarryMakesTheRunIgnoreThePool)
{
    // A carry chains every round to the one before, so the pooled
    // call must walk the rounds serially: the same reports and the
    // same exported state (the second request reads it back).
    const auto rounds = unevenRounds();
    const sim::RunConfig rcfg =
        backendConfig(power::IrBackendKind::Transient);
    const sim::Runtime rt(pim::PimConfig{}, power::defaultCalibration(),
                          rcfg);
    const isa::Engine engine(pim::PimConfig{},
                             power::defaultCalibration(), rcfg);
    const isa::Program program = lowered(rounds, rcfg);

    std::unique_ptr<power::IrState> rt_ref, en_ref;
    const auto rt_a = rt.run(rounds, test::stream(), 5, &rt_ref);
    const auto rt_b = rt.run(rounds, test::stream(), 6, &rt_ref);
    const auto en_a = engine.run(program, test::stream(), 5, &en_ref);
    const auto en_b = engine.run(program, test::stream(), 6, &en_ref);

    exec::ExecPool pool(4);
    std::unique_ptr<power::IrState> rt_carry, en_carry;
    expectSameRun(rt.run(rounds, test::stream(), 5, &rt_carry, &pool),
                  rt_a);
    expectSameRun(rt.run(rounds, test::stream(), 6, &rt_carry, &pool),
                  rt_b);
    expectSameEngine(engine.run(program, test::stream(), 5, &en_carry,
                                nullptr, nullptr, &pool),
                     en_a);
    expectSameEngine(engine.run(program, test::stream(), 6, &en_carry,
                                nullptr, nullptr, &pool),
                     en_b);
    // The carried runs differ from the seedless ones, so the
    // comparisons above could not pass on the parallel path.
    EXPECT_NE(rt.run(rounds, test::stream(), 6).irMeanMv,
              rt_b.irMeanMv);
}

TEST(PooledRun, TracedEngineMatchesTheSerialTrace)
{
    // Each round buffers its own trace events and run() emits them in
    // round order, so a trace does not keep the run off the pool.
    const auto rounds = unevenRounds();
    const sim::RunConfig rcfg = backendConfig(power::IrBackendKind::Mesh);
    const isa::Program program = lowered(rounds, rcfg, true);
    const isa::Schedule schedule = isa::scheduleProgram(program);
    const isa::Engine engine(pim::PimConfig{},
                             power::defaultCalibration(), rcfg);
    for (const isa::Schedule *sched :
         {static_cast<const isa::Schedule *>(nullptr), &schedule}) {
        std::ostringstream serial_csv;
        isa::CsvTrace serial_trace(serial_csv);
        const auto want = engine.run(program, test::stream(), 77,
                                     nullptr, &serial_trace, sched);
        for (const int threads : kPoolThreads) {
            SCOPED_TRACE(std::string(sched ? "scheduled, " : "") +
                         std::to_string(threads) + " threads");
            std::ostringstream pooled_csv;
            isa::CsvTrace pooled_trace(pooled_csv);
            exec::ExecPool pool(threads);
            expectSameEngine(engine.run(program, test::stream(), 77,
                                        nullptr, &pooled_trace, sched,
                                        &pool),
                             want);
            EXPECT_EQ(pooled_csv.str(), serial_csv.str());
        }
    }
}

TEST(PooledRun, ExecuteMatchesSerialRunOnTheSameArtifact)
{
    // AimPipeline::execute runs a request's rounds on a pool it
    // creates per call; its report must equal the serial
    // Runtime::run / Engine::run of the same artifact and seed, and a
    // trace sink must see the serial event order.
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const AimPipeline pipe(cfg, cal);
    AimOptions opts = test::fastServeOptions();
    opts.mapper = mapping::MapperKind::HrAware;
    const auto model = workload::modelByName("ResNet18");
    const CompiledModel art = pipe.compile(model, opts);
    ASSERT_GT(art.rounds.size(), 1u);
    const sim::Runtime rt(cfg, cal, runConfigFor(opts));
    for (const uint64_t seed : {uint64_t{4242}, uint64_t{9}})
        expectSameRun(pipe.execute(art, seed).run,
                      rt.run(art.rounds, art.stream, seed));

    opts.useIsa = true;
    opts.isaSchedule = true;
    const CompiledModel low = pipe.compile(model, opts);
    const isa::Engine engine(cfg, cal, runConfigFor(opts));
    std::ostringstream serial_csv, execute_csv;
    isa::CsvTrace serial_trace(serial_csv), execute_trace(execute_csv);
    const auto want = engine.run(*low.program, low.stream, 4242, nullptr,
                                 &serial_trace, low.schedule.get());
    for (isa::TraceSink *sink :
         {static_cast<isa::TraceSink *>(nullptr),
          static_cast<isa::TraceSink *>(&execute_trace)}) {
        SCOPED_TRACE(sink ? "traced" : "untraced");
        const AimReport got = pipe.execute(low, 4242, sink);
        expectSameRun(got.run, want.run);
        EXPECT_EQ(got.isaInstructions, want.decoded);
        EXPECT_EQ(got.isaFusedMacs, want.fusedMacs);
        EXPECT_EQ(got.isaTailIdleNs, want.tailIdleNs);
        EXPECT_EQ(got.isaInOrderMakespanNs, want.inOrderMakespanNs);
        EXPECT_EQ(got.isaScheduledMakespanNs, want.scheduledMakespanNs);
        EXPECT_EQ(got.isaScheduleSavedNs, want.scheduleSavedNs);
    }
    EXPECT_EQ(execute_csv.str(), serial_csv.str());
}
