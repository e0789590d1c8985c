/**
 * @file
 * Property gate of the ISA list scheduler (isa/Schedule): the
 * scheduled issue order must be a scoreboard-legal permutation of
 * the lowered program under Policy::Pipelined, scheduling must never
 * touch the physics (droop/accuracy statistics bit-identical to the
 * in-order engine across every droop backend, with and without
 * booster/fusion/carry), the scheduled makespan must never exceed
 * the in-order one on any zoo model, and the serving layer must stay
 * bit-identical across host thread counts with scheduling on.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "isa/Engine.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "isa/Scoreboard.hh"
#include "workload/ModelZoo.hh"

namespace aim::isa
{
namespace
{

using test::convRound;
using test::expectSameRun;

/** Per-Set imbalanced round: the heavy Set carries 4x the MACs, so
 * the light Sets retire their windows early. */
sim::Round
skewedRound(double hr, int heavy_set, bool input_det = false)
{
    sim::Round r = convRound(hr, 16, 8'000'000, input_det);
    for (auto &t : r.tasks)
        if (t.setId == heavy_set)
            t.macs *= 4;
    return r;
}

/**
 * Multi-round workload with an empty round in the middle (the
 * lowering's NOP boundary) -- the scheduler's standard probe.  The
 * heavy Set rotates between rounds: round r+1's heavy Set was light
 * in round r, so its LOAD_WEIGHT escapes the barrier and hides
 * under round r's trailing compute -- the shape the scheduler
 * exists for.  (With perfectly uniform Sets every MAC retires at
 * the barrier instant and no load can move: savings are legally
 * zero there.)
 */
std::vector<sim::Round>
probeRounds()
{
    return {skewedRound(0.30, 0), sim::Round{},
            skewedRound(0.45, 3, true), skewedRound(0.55, 1)};
}

/** Lower + fuse with the serving-grade cost model attached. */
Program
costedProgram(const std::vector<sim::Round> &rounds,
              bool emit_retune = true, bool fuse = true)
{
    const pim::PimConfig cfg;
    LowerOptions lopts;
    lopts.emitRetune = emit_retune;
    lopts.loadNsPerWord = 8.0 * 1000.0 / 1e6; // AimOptions default
    lopts.retuneNs = 0.5 * 1000.0;
    Program program = lower(rounds, cfg, lopts);
    if (fuse)
        fuseMacShift(program);
    return program;
}

TEST(IsaSchedule, OrderIsScoreboardLegalPermutation)
{
    const Program prog = costedProgram(probeRounds());
    const Schedule sched = scheduleProgram(prog);

    // A permutation of [0, n) with a consistent inverse.
    ASSERT_EQ(sched.order.size(), prog.code.size());
    ASSERT_EQ(sched.slotOf.size(), prog.code.size());
    std::vector<int> sorted = sched.order;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        ASSERT_EQ(sorted[i], static_cast<int>(i));
    for (size_t slot = 0; slot < sched.order.size(); ++slot)
        EXPECT_EQ(
            sched.slotOf[static_cast<size_t>(sched.order[slot])],
            static_cast<int>(slot));

    // The whole point: the order actually pipelines across rounds.
    std::vector<int> identity(prog.code.size());
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_NE(sched.order, identity);
    EXPECT_LT(sched.estScheduledNs, sched.estInOrderNs);

    // Every slot must be issuable when its turn comes under the
    // relaxed (MAC-only barrier) hazard rules -- the legality oracle
    // is the Scoreboard itself, not the scheduler's own graph.
    Scoreboard sb(prog, Scoreboard::Policy::Pipelined);
    for (size_t slot = 0; slot < sched.order.size(); ++slot) {
        const auto i = static_cast<size_t>(sched.order[slot]);
        ASSERT_TRUE(sb.issuable(i))
            << "slot " << slot << " instr " << i << " ("
            << opcodeName(prog.code[i].op) << " round "
            << prog.code[i].round << ") not issuable";
        sb.issue(i);
        sb.complete(i);
    }
    EXPECT_TRUE(sb.allCompleted());
}

TEST(IsaSchedule, ReplayRelaxedNeverExceedsStrict)
{
    const Program prog = costedProgram(probeRounds());
    // Synthetic duration vectors: costs only, uniform, and skewed.
    std::vector<std::vector<double>> durations;
    std::vector<double> costs(prog.code.size(), 0.0);
    for (size_t i = 0; i < prog.code.size(); ++i)
        costs[i] = prog.code[i].costNs;
    durations.push_back(costs);
    durations.emplace_back(prog.code.size(), 7.0);
    std::vector<double> skew = costs;
    for (size_t i = 0; i < skew.size(); ++i)
        if (prog.code[i].op == Opcode::MacWindow)
            skew[i] = 100.0 + 13.0 * static_cast<double>(i % 7);
    durations.push_back(skew);

    for (const auto &dur : durations) {
        const TimingReplay strict = replayTiming(prog, dur, false);
        const TimingReplay relaxed = replayTiming(prog, dur, true);
        EXPECT_LE(relaxed.makespanNs, strict.makespanNs);
        for (size_t i = 0; i < prog.code.size(); ++i) {
            // Relaxed drops constraints; it can never start later.
            EXPECT_LE(relaxed.startNs[i], strict.startNs[i]) << i;
            EXPECT_EQ(relaxed.completeNs[i],
                      relaxed.startNs[i] + dur[i])
                << i;
        }
    }
}

TEST(IsaSchedule, StatsBitIdenticalAcrossBackends)
{
    const auto rounds = probeRounds();
    for (const auto kind : {power::IrBackendKind::Analytic,
                            power::IrBackendKind::Mesh,
                            power::IrBackendKind::Transient}) {
        sim::RunConfig rcfg;
        rcfg.mapper = mapping::MapperKind::Sequential;
        rcfg.irBackend = kind;
        rcfg.seed = 77;
        const sim::RunReport want =
            test::execute(rounds, rcfg, rcfg.seed);

        const Program prog = costedProgram(rounds);
        const Schedule sched = scheduleProgram(prog);
        const Engine engine(pim::PimConfig{},
                            power::defaultCalibration(), rcfg);
        const EngineReport er = engine.run(
            prog, test::stream(), rcfg.seed, nullptr, nullptr,
            &sched);
        // The scheduler only re-times issue slots: the physics walk
        // stays round-atomic and in-order, so every droop/accuracy
        // statistic is bit-identical to the round-level runtime...
        expectSameRun(er.run, want);
        // ...while the cost-modelled replay strictly brackets the
        // measured wall time from above.
        EXPECT_GE(er.inOrderMakespanNs, er.run.wallTimeNs);
        EXPECT_LE(er.scheduledMakespanNs, er.inOrderMakespanNs);
        EXPECT_GE(er.scheduledMakespanNs, er.run.wallTimeNs);
        EXPECT_EQ(er.scheduleSavedNs,
                  er.inOrderMakespanNs - er.scheduledMakespanNs);
        EXPECT_GT(er.scheduleSavedNs, 0.0);
    }
}

TEST(IsaSchedule, BoosterOffAndFusionOffStayBitIdentical)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.55, 16, 15'000'000)};
    sim::RunConfig rcfg;
    rcfg.useBooster = false;
    const sim::RunReport want =
        test::execute(rounds, rcfg, rcfg.seed);
    const Engine engine(pim::PimConfig{},
                        power::defaultCalibration(), rcfg);
    for (const bool fuse : {true, false}) {
        const Program prog =
            costedProgram(rounds, rcfg.useBooster, fuse);
        const Schedule sched = scheduleProgram(prog);
        const EngineReport er = engine.run(
            prog, test::stream(), rcfg.seed, nullptr, nullptr,
            &sched);
        expectSameRun(er.run, want);
        EXPECT_LE(er.scheduledMakespanNs, er.inOrderMakespanNs);
    }
}

TEST(IsaSchedule, TransientCarryBitIdenticalUnderScheduling)
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

    const Program pa = costedProgram(first, rcfg.useBooster);
    const Program pb = costedProgram(second, rcfg.useBooster);
    const Schedule sa = scheduleProgram(pa);
    const Schedule sb = scheduleProgram(pb);
    const Engine engine(cfg, cal, rcfg);
    std::unique_ptr<power::IrState> en_carry;
    const auto en_a = engine.run(pa, test::stream(), 5, &en_carry,
                                 nullptr, &sa);
    const auto en_b = engine.run(pb, test::stream(), 6, &en_carry,
                                 nullptr, &sb);

    expectSameRun(en_a.run, rt_a);
    expectSameRun(en_b.run, rt_b);
}

TEST(IsaSchedule, DefaultIsaPathCarriesNoScheduleOrCosts)
{
    AimPipeline pipeline(pim::PimConfig{},
                         power::defaultCalibration());
    auto opts = test::fastServeOptions();
    opts.useIsa = true;
    const auto compiled = pipeline.compile(
        workload::modelByName("ResNet18"), opts);
    // Without isaSchedule the artifact is exactly the pre-scheduler
    // one: no schedule, zero-cost instructions, and the in-order
    // replay degenerates to the measured wall time.
    EXPECT_EQ(compiled.schedule, nullptr);
    ASSERT_NE(compiled.program, nullptr);
    for (const auto &in : compiled.program->code)
        EXPECT_EQ(in.costNs, 0.0);
    const AimReport rep = pipeline.execute(compiled);
    EXPECT_DOUBLE_EQ(rep.isaInOrderMakespanNs, rep.run.wallTimeNs);
    EXPECT_DOUBLE_EQ(rep.isaScheduledMakespanNs,
                     rep.isaInOrderMakespanNs);
    EXPECT_EQ(rep.isaScheduleSavedNs, 0.0);
}

TEST(IsaSchedule, ZooMakespansShrinkWithBitIdenticalStats)
{
    AimPipeline pipeline(pim::PimConfig{},
                         power::defaultCalibration());
    for (const auto &model : workload::allModels()) {
        auto flat_opts = test::fastServeOptions();
        flat_opts.useIsa = true;
        auto sched_opts = flat_opts;
        sched_opts.isaSchedule = true;

        const auto flat = pipeline.run(model, flat_opts);
        const auto sched = pipeline.run(model, sched_opts);
        // Scheduling moves timing, never physics.
        expectSameRun(sched.run, flat.run);
        EXPECT_EQ(sched.accuracy.metric, flat.accuracy.metric)
            << model.name;
        // Cost-modelled loads/retunes only ever add to the in-order
        // makespan; pipelining claws time back but can never go
        // below the measured compute wall.
        EXPECT_GE(sched.isaInOrderMakespanNs, sched.run.wallTimeNs)
            << model.name;
        EXPECT_LE(sched.isaScheduledMakespanNs,
                  sched.isaInOrderMakespanNs)
            << model.name;
        EXPECT_GE(sched.isaScheduledMakespanNs,
                  sched.run.wallTimeNs)
            << model.name;
        EXPECT_GT(sched.isaScheduleSavedNs, 0.0) << model.name;
    }
}

TEST(IsaSchedule, ValidateOptionsGatesTheKnobs)
{
    AimOptions opts;
    opts.isaSchedule = true;
    EXPECT_FALSE(validateOptions(opts).empty())
        << "isaSchedule without useIsa must be rejected";
    opts.useIsa = true;
    EXPECT_TRUE(validateOptions(opts).empty());
    // Negative cost knobs are the "derive from the fleet" sentinel,
    // not an error: validation accepts them and the resolvers fall
    // back to the documented defaults.
    opts.isaLoadUsPerMword = -1.0;
    opts.isaRetuneUs = -0.1;
    EXPECT_TRUE(validateOptions(opts).empty());
    EXPECT_EQ(resolvedIsaLoadUsPerMword(opts), kDefaultIsaLoadUsPerMword);
    EXPECT_EQ(resolvedIsaRetuneUs(opts), kDefaultIsaRetuneUs);
    // Explicit values win over the sentinel fallback.
    opts.isaLoadUsPerMword = 3.5;
    opts.isaRetuneUs = 0.25;
    EXPECT_TRUE(validateOptions(opts).empty());
    EXPECT_EQ(resolvedIsaLoadUsPerMword(opts), 3.5);
    EXPECT_EQ(resolvedIsaRetuneUs(opts), 0.25);
}

serve::FleetConfig
scheduledFleet(int chips)
{
    serve::FleetConfig fcfg;
    fcfg.chips = chips;
    fcfg.options = test::fastServeOptions();
    fcfg.options.useIsa = true;
    fcfg.options.isaSchedule = true;
    return fcfg;
}

TEST(IsaSchedule, FleetServiceShrinksWithSamePhysics)
{
    const auto trace = test::serveTrace(24);

    auto flat_cfg = scheduledFleet(1);
    flat_cfg.options.isaSchedule = false;
    const auto flat = test::serveFleet(flat_cfg, trace);
    const auto sched = test::serveFleet(scheduledFleet(1), trace);

    EXPECT_EQ(flat.scheduleSavedUs, 0.0);
    EXPECT_GT(sched.scheduleSavedUs, 0.0);
    // Same chip physics; only the modelled service time moved.
    EXPECT_EQ(sched.totalMacs, flat.totalMacs);
    EXPECT_EQ(sched.irFailures, flat.irFailures);
    EXPECT_EQ(sched.stallWindows, flat.stallWindows);
    EXPECT_EQ(sched.totalModelSwitches(),
              flat.totalModelSwitches());
}

TEST(IsaSchedule, FleetThreadCountBitIdentity)
{
    const auto trace = test::serveTrace(24);

    auto fcfg = scheduledFleet(3);
    const auto a = test::serveFleet(fcfg, trace);
    fcfg.threads = 4;
    const auto b = test::serveFleet(fcfg, trace);
    EXPECT_GT(a.scheduleSavedUs, 0.0);
    EXPECT_EQ(a.scheduleSavedUs, b.scheduleSavedUs);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    ASSERT_EQ(a.latencyUs.size(), b.latencyUs.size());
    for (size_t i = 0; i < a.latencyUs.size(); ++i) {
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]) << i;
        EXPECT_EQ(a.queueUs[i], b.queueUs[i]) << i;
    }
}

} // namespace
} // namespace aim::isa
