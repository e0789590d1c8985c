/**
 * @file
 * The ISA engine's bit-identity gate: executing the lowered program
 * must reproduce Runtime::run's RunReport bit-for-bit -- same
 * numbers, same per-round latency vector -- on every droop backend,
 * with and without booster/carry, and through the full pipeline on
 * zoo models.  Also pins the synthetic sprint golden (the
 * BackendGoldenTest constants) against the engine directly, and
 * sanity-checks the instruction accounting and CSV trace.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "aim/Aim.hh"
#include "isa/Engine.hh"
#include "isa/Lower.hh"
#include "workload/ModelZoo.hh"

namespace aim::isa
{
namespace
{

using test::convRound;
using test::expectSameRun;

EngineReport
runEngine(const std::vector<sim::Round> &rounds,
          const sim::RunConfig &rcfg, uint64_t seed,
          bool fuse = true, TraceSink *trace = nullptr)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    LowerOptions lopts;
    lopts.emitRetune = rcfg.useBooster;
    Program program = lower(rounds, cfg, lopts);
    if (fuse)
        fuseMacShift(program);
    const Engine engine(cfg, cal, rcfg);
    return engine.run(program, test::stream(), seed, nullptr, trace);
}

TEST(IsaEngineGolden, SprintDefaultMatchesRuntimeBitForBit)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.30, 16, 30'000'000)};
    const sim::RunConfig rcfg;
    const sim::RunReport want = test::execute(rounds, rcfg);
    const EngineReport er = runEngine(rounds, rcfg, rcfg.seed);
    expectSameRun(er.run, want);

    // And against the pinned sprint constants of the golden surface
    // (tests/sim/BackendGoldenTest SprintDefault), so a joint drift
    // of both paths cannot hide.
    EXPECT_DOUBLE_EQ(er.run.wallTimeNs, 12213.333333333116);
    EXPECT_DOUBLE_EQ(er.run.totalMacs, 480000000.0);
    EXPECT_EQ(er.run.usefulWindows, 7328L);
    EXPECT_DOUBLE_EQ(er.run.meanRtog, 0.071855234706291626);
}

TEST(IsaEngineGolden, EveryBackendMatchesRuntimeBitForBit)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.30, 16, 20'000'000), sim::Round{},
        convRound(0.45, 8, 12'000'000, true)};
    for (const auto kind : {power::IrBackendKind::Analytic,
                            power::IrBackendKind::Mesh,
                            power::IrBackendKind::Transient}) {
        sim::RunConfig rcfg;
        rcfg.mapper = mapping::MapperKind::Sequential;
        rcfg.irBackend = kind;
        rcfg.seed = 77;
        const sim::RunReport want =
            test::execute(rounds, rcfg, rcfg.seed);
        const EngineReport er = runEngine(rounds, rcfg, rcfg.seed);
        expectSameRun(er.run, want);
    }
}

TEST(IsaEngineGolden, BoosterOffAndFusionOffStayBitIdentical)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.55, 16, 15'000'000)};
    sim::RunConfig rcfg;
    rcfg.useBooster = false;
    const sim::RunReport want =
        test::execute(rounds, rcfg, rcfg.seed);
    // Fusion is semantics-preserving: fused and unfused programs
    // both reproduce the runtime bit-for-bit.
    expectSameRun(
        runEngine(rounds, rcfg, rcfg.seed, true).run, want);
    expectSameRun(
        runEngine(rounds, rcfg, rcfg.seed, false).run, want);
}

TEST(IsaEngineGolden, TransientCarryMatchesRuntimeCarry)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    sim::RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = power::IrBackendKind::Transient;
    const std::vector<sim::Round> first = {convRound(0.60, 16)};
    const std::vector<sim::Round> second = {convRound(0.30, 16)};

    const sim::Runtime rt(cfg, cal, rcfg);
    std::unique_ptr<power::IrState> rt_carry;
    const auto rt_a = rt.run(first, test::stream(), 5, &rt_carry);
    const auto rt_b = rt.run(second, test::stream(), 6, &rt_carry);

    LowerOptions lopts;
    lopts.emitRetune = rcfg.useBooster;
    Program pa = lower(first, cfg, lopts);
    Program pb = lower(second, cfg, lopts);
    fuseMacShift(pa);
    fuseMacShift(pb);
    const Engine engine(cfg, cal, rcfg);
    std::unique_ptr<power::IrState> en_carry;
    const auto en_a =
        engine.run(pa, test::stream(), 5, &en_carry);
    const auto en_b =
        engine.run(pb, test::stream(), 6, &en_carry);

    expectSameRun(en_a.run, rt_a);
    expectSameRun(en_b.run, rt_b);
}

TEST(IsaEngineGolden, ZooModelsMatchThroughThePipeline)
{
    const AimPipeline pipe(pim::PimConfig{},
                           power::defaultCalibration());
    for (const char *model : {"ResNet18", "MobileNetV2"}) {
        AimOptions opts = test::fastServeOptions();
        const auto flat =
            pipe.compile(workload::modelByName(model), opts);
        opts.useIsa = true;
        const auto isa =
            pipe.compile(workload::modelByName(model), opts);
        ASSERT_NE(isa.program, nullptr);
        const auto rep_flat = pipe.execute(flat, 12345);
        const auto rep_isa = pipe.execute(isa, 12345);
        expectSameRun(rep_isa.run, rep_flat.run);
        EXPECT_EQ(rep_isa.isaInstructions,
                  static_cast<long>(isa.program->code.size()));
        EXPECT_GT(rep_isa.isaFusedMacs, 0);
        EXPECT_GE(rep_isa.isaTailIdleNs, 0.0);
        EXPECT_EQ(rep_flat.isaInstructions, 0);
    }
}

TEST(IsaEngineGolden, AccountingAndTraceAreConsistent)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.30, 16, 10'000'000), sim::Round{}};
    const sim::RunConfig rcfg;
    std::ostringstream csv;
    CsvTrace trace(csv);
    const EngineReport er =
        runEngine(rounds, rcfg, rcfg.seed, true, &trace);

    // Fused program: 4x (LOAD + SYNC + fused MAC) + RETUNE + BARRIER
    // for the conv round, one NOP for the empty round.
    EXPECT_EQ(er.decoded, 15);
    EXPECT_EQ(er.issued, er.decoded);
    EXPECT_EQ(er.completed, er.decoded);
    EXPECT_EQ(er.fusedMacs, 4);
    const auto &by_op = er.issuedByOp;
    EXPECT_EQ(by_op[static_cast<int>(Opcode::MacWindow)], 4);
    EXPECT_EQ(by_op[static_cast<int>(Opcode::ShiftAcc)], 0);
    EXPECT_EQ(by_op[static_cast<int>(Opcode::Nop)], 1);
    EXPECT_GE(er.tailIdleNs, 0.0);

    // CSV: one header plus one issue + one complete per instruction.
    const std::string text = csv.str();
    const long lines =
        static_cast<long>(std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, 1 + 2 * er.decoded);
    EXPECT_EQ(
        text.rfind("instr,op,set,round,window,t_ns,slot,clk_ns,event",
                   0),
        0u);
}

TEST(IsaEngineGolden, EngineIsDeterministicAcrossRuns)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.40, 16, 18'000'000)};
    const sim::RunConfig rcfg;
    const EngineReport a = runEngine(rounds, rcfg, 99);
    const EngineReport b = runEngine(rounds, rcfg, 99);
    expectSameRun(a.run, b.run);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.tailIdleNs, b.tailIdleNs);
}

} // namespace
} // namespace aim::isa
