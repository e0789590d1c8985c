/**
 * @file
 * Bit-identity of the aim_cli / perfbench cli_flow execute path.
 * AimPipeline::execute under the default AimOptions (LHR QAT, WDS,
 * HR-aware mapper, Analytic droop, booster on) must reproduce every
 * RunReport field below -- the per-round latency vector included --
 * on the multi-round ResNet18 artifact, and its useIsa + isaSchedule
 * twin must reproduce the same RunReport plus the engine's
 * instruction counters and makespans.  The constants were captured
 * (full %.17g precision) from the serial round loop, before execute
 * ran its rounds on a pool, so any drift means the execute path's
 * arithmetic or draw order moved.  A mismatch prints the observed
 * values in initializer syntax.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "isa/Engine.hh"

using namespace aim;

namespace
{

struct RunGolden
{
    double wallTimeNs;
    double totalMacs;
    double tops;
    double macroPowerMw;
    double irWorstMv;
    double irMeanMv;
    long failures;
    long stallWindows;
    long usefulWindows;
    long vfSwitches;
    double meanLevel;
    double meanRtog;
    double irMitigationVsSignoff;
    double efficiencyGain;
    std::vector<double> roundLatencyNs;
};

struct IsaGolden
{
    long instructions;
    long fusedMacs;
    double tailIdleNs;
    double inOrderMakespanNs;
    double scheduledMakespanNs;
    double scheduleSavedNs;
    std::array<long, isa::kOpcodeCount> issuedByOp;
};

const pim::PimConfig kCfg;

const AimPipeline &
pipeline()
{
    static const AimPipeline pipe(kCfg, power::defaultCalibration());
    return pipe;
}

/** Default-options ResNet18, compiled once per process. */
const CompiledModel &
artifact(bool isa)
{
    static const CompiledModel plain =
        pipeline().compile(workload::resnet18(), AimOptions{});
    static const CompiledModel lowered = [] {
        AimOptions opts;
        opts.useIsa = true;
        opts.isaSchedule = true;
        return pipeline().compile(workload::resnet18(), opts);
    }();
    return isa ? lowered : plain;
}

RunGolden
observe(const AimReport &r)
{
    const sim::RunReport &x = r.run;
    return {x.wallTimeNs,     x.totalMacs,      x.tops,
            x.macroPowerMw,   x.irWorstMv,      x.irMeanMv,
            x.failures,       x.stallWindows,   x.usefulWindows,
            x.vfSwitches,     x.meanLevel,      x.meanRtog,
            r.irMitigationVsSignoff,            r.efficiencyGain,
            x.roundLatencyNs};
}

void
printRun(const char *what, const RunGolden &g)
{
    std::printf("observed %s: {%.17g, %.17g, %.17g, %.17g, %.17g, "
                "%.17g, %ld, %ld, %ld, %ld, %.17g, %.17g, %.17g, "
                "%.17g,\n    {",
                what, g.wallTimeNs, g.totalMacs, g.tops, g.macroPowerMw,
                g.irWorstMv, g.irMeanMv, g.failures, g.stallWindows,
                g.usefulWindows, g.vfSwitches, g.meanLevel, g.meanRtog,
                g.irMitigationVsSignoff, g.efficiencyGain);
    for (size_t i = 0; i < g.roundLatencyNs.size(); ++i)
        std::printf("%s%.17g", i ? ", " : "", g.roundLatencyNs[i]);
    std::printf("}}\n");
}

void
expectRun(const char *what, const AimReport &r, const RunGolden &g)
{
    const RunGolden got = observe(r);
    EXPECT_EQ(got.wallTimeNs, g.wallTimeNs);
    EXPECT_EQ(got.totalMacs, g.totalMacs);
    EXPECT_EQ(got.tops, g.tops);
    EXPECT_EQ(got.macroPowerMw, g.macroPowerMw);
    EXPECT_EQ(got.irWorstMv, g.irWorstMv);
    EXPECT_EQ(got.irMeanMv, g.irMeanMv);
    EXPECT_EQ(got.failures, g.failures);
    EXPECT_EQ(got.stallWindows, g.stallWindows);
    EXPECT_EQ(got.usefulWindows, g.usefulWindows);
    EXPECT_EQ(got.vfSwitches, g.vfSwitches);
    EXPECT_EQ(got.meanLevel, g.meanLevel);
    EXPECT_EQ(got.meanRtog, g.meanRtog);
    EXPECT_EQ(got.irMitigationVsSignoff, g.irMitigationVsSignoff);
    EXPECT_EQ(got.efficiencyGain, g.efficiencyGain);
    EXPECT_EQ(got.roundLatencyNs, g.roundLatencyNs);
    if (::testing::Test::HasFailure())
        printRun(what, got);
}

// Seed 0 is execute's default (the options-derived seed aim_cli
// runs); the other is a serving-style per-request override.
const RunGolden kDefaultSeed = {
    5974.7368421052588, 363236385, 305.14410364828086,
    3.8857001833860476, 68.574137192415535, 29.021787757664875, 4, 6,
    2908, 6, 23.511351291273101, 0.085859583098760031,
    0.51018473433988909, 1.1060554847684732,
    {4806.6666666666615, 366.66666666666686, 266.66666666666657,
     174.73684210526318, 200, 153.33333333333334, 6.666666666666667}};
const RunGolden kSeed5 = {
    5950.8771929824516, 363236385, 305.49691373760709,
    3.8313440312492117, 67.89964384518575, 28.870352722000145, 5, 6,
    2908, 7, 23.541670446298983, 0.084510623738730445,
    0.51500254396295886, 1.1217473463479863,
    {4806.6666666666615, 366.66666666666686, 266.66666666666657,
     177.54385964912282, 173.33333333333331, 153.33333333333334,
     6.666666666666667}};
const IsaGolden kIsaDefaultSeed = {
    76, 21, 3.3333333333333335, 44123.47284210525, 8923.3448421052635,
    35200.127999999982, {21, 21, 0, 20, 7, 7, 0}};

} // namespace

TEST(ExecuteGolden, ResNet18DefaultOptions)
{
    const CompiledModel &art = artifact(false);
    ASSERT_GT(art.rounds.size(), 1u);
    expectRun("seed 0", pipeline().execute(art), kDefaultSeed);
}

TEST(ExecuteGolden, ResNet18DefaultOptionsRequestSeed)
{
    expectRun("seed 5", pipeline().execute(artifact(false), 5), kSeed5);
}

TEST(ExecuteGolden, ResNet18IsaScheduleTwin)
{
    const CompiledModel &art = artifact(true);
    ASSERT_NE(art.schedule, nullptr);
    const AimReport rep = pipeline().execute(art);
    // The ISA path reproduces the round runtime's report bit for bit.
    expectRun("isa seed 0", rep, kDefaultSeed);

    // Per-opcode issue counts come from the engine itself, serially.
    const sim::RunConfig rcfg = runConfigFor(art.options);
    const isa::EngineReport er =
        isa::Engine(kCfg, power::defaultCalibration(), rcfg)
            .run(*art.program, art.stream, rcfg.seed, nullptr, nullptr,
                 art.schedule.get());
    const IsaGolden got{rep.isaInstructions,
                        rep.isaFusedMacs,
                        rep.isaTailIdleNs,
                        rep.isaInOrderMakespanNs,
                        rep.isaScheduledMakespanNs,
                        rep.isaScheduleSavedNs,
                        er.issuedByOp};
    const IsaGolden &g = kIsaDefaultSeed;
    EXPECT_EQ(got.instructions, g.instructions);
    EXPECT_EQ(got.fusedMacs, g.fusedMacs);
    EXPECT_EQ(got.tailIdleNs, g.tailIdleNs);
    EXPECT_EQ(got.inOrderMakespanNs, g.inOrderMakespanNs);
    EXPECT_EQ(got.scheduledMakespanNs, g.scheduledMakespanNs);
    EXPECT_EQ(got.scheduleSavedNs, g.scheduleSavedNs);
    EXPECT_EQ(got.issuedByOp, g.issuedByOp);
    EXPECT_EQ(er.decoded, g.instructions);
    EXPECT_EQ(er.issued, g.instructions);
    EXPECT_EQ(er.completed, g.instructions);
    if (::testing::Test::HasFailure()) {
        std::printf("observed isa: {%ld, %ld, %.17g, %.17g, %.17g, "
                    "%.17g, {",
                    got.instructions, got.fusedMacs, got.tailIdleNs,
                    got.inOrderMakespanNs, got.scheduledMakespanNs,
                    got.scheduleSavedNs);
        for (int op = 0; op < isa::kOpcodeCount; ++op)
            std::printf("%s%ld", op ? ", " : "", got.issuedByOp[op]);
        std::printf("}}\n");
    }
}
