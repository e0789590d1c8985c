/**
 * @file
 * Bit-identity of the decomposed window engine: with the default
 * Analytic backend, every RunReport field must equal the values the
 * pre-refactor monolithic Runtime::runRound produced.  The golden
 * numbers below were captured from the seed implementation (full
 * %.17g precision) immediately before the ChipState / WindowKernel /
 * IrBackend split; any drift here means the refactor changed
 * simulated physics, not just code shape.
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"

using namespace aim;
using namespace aim::sim;
using aim::booster::BoostMode;
using aim::test::convRound;
using aim::test::execute;

namespace
{

struct Golden
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
};

void
expectGolden(const RunReport &rep, const Golden &g)
{
    EXPECT_DOUBLE_EQ(rep.wallTimeNs, g.wallTimeNs);
    EXPECT_DOUBLE_EQ(rep.totalMacs, g.totalMacs);
    EXPECT_DOUBLE_EQ(rep.tops, g.tops);
    EXPECT_DOUBLE_EQ(rep.macroPowerMw, g.macroPowerMw);
    EXPECT_DOUBLE_EQ(rep.irWorstMv, g.irWorstMv);
    EXPECT_DOUBLE_EQ(rep.irMeanMv, g.irMeanMv);
    EXPECT_EQ(rep.failures, g.failures);
    EXPECT_EQ(rep.stallWindows, g.stallWindows);
    EXPECT_EQ(rep.usefulWindows, g.usefulWindows);
    EXPECT_EQ(rep.vfSwitches, g.vfSwitches);
    EXPECT_DOUBLE_EQ(rep.meanLevel, g.meanLevel);
    EXPECT_DOUBLE_EQ(rep.meanRtog, g.meanRtog);
}

} // namespace

TEST(BackendGolden, SprintDefault)
{
    RunConfig rcfg; // Sprint, HrAware, seed 31 -- all defaults
    expectGolden(
        execute({convRound(0.30, 16, 30'000'000)}, rcfg),
        {12213.333333333116, 480000000, 307.19999999998214,
         3.3630540204326791, 58.389237339345655, 26.522479207785736,
         0L, 0L, 7328L, 0L, 20.272925764192141,
         0.071855234706291626});
}

TEST(BackendGolden, DvfsBaseline)
{
    RunConfig rcfg;
    rcfg.useBooster = false;
    rcfg.mapper = mapping::MapperKind::Sequential;
    expectGolden(
        execute({convRound(0.30, 16, 30'000'000)}, rcfg),
        {14656, 480000000, 256, 2.8442116836940001,
         50.653821141617691, 23.772071032081257, 0L, 0L, 7328L, 0L,
         100, 0.071855234706291626});
}

TEST(BackendGolden, LowPowerBeta20Seed77)
{
    RunConfig rcfg;
    rcfg.boost.mode = BoostMode::LowPower;
    rcfg.boost.beta = 20;
    rcfg.seed = 77;
    expectGolden(
        execute({convRound(0.45, 16, 30'000'000)}, rcfg),
        {16552, 480000000, 228.83239814588924, 3.0389429660687433,
         64.219333872572037, 26.654900677688175, 149L, 870L, 7328L,
         298L, 29.344490091831801, 0.10668485120366619});
}

TEST(BackendGolden, TwoRoundsMerged)
{
    RunConfig rcfg;
    expectGolden(
        execute({convRound(0.30, 16, 30'000'000),
                 convRound(0.50, 12, 20'000'000)},
                rcfg),
        {21041.403508771731, 720000000, 297.38925130380795,
         4.0303565970389332, 86.983305811895178, 30.681624048423377,
         33L, 204L, 10991L, 68L, 26.16610685044089,
         0.091584245766897068});
}

TEST(BackendGolden, InputDeterminedTasks)
{
    RunConfig rcfg;
    expectGolden(
        execute({convRound(0.40, 16, 30'000'000, true)}, rcfg),
        {13439.430799220088, 480000000, 282.87983062059789,
         3.9816435680179416, 73.274407484361248, 30.875913003245937,
         36L, 229L, 7328L, 78L, 44.083113456464382,
         0.095742171797143824});
}

TEST(BackendGolden, SeedOverride)
{
    RunConfig rcfg;
    expectGolden(
        execute({convRound(0.35, 16, 30'000'000)}, rcfg, 1234),
        {12270.877192982252, 480000000, 305.80439608268222,
         3.7173111027311472, 66.770688158286561, 28.769500173137114,
         4L, 24L, 7328L, 8L, 21.08405875952122,
         0.081663730517896826});
}

TEST(BackendGolden, TransientResNet18HeadlineDroop)
{
    // Bit-exact regression of the transient backend's headline
    // numbers on a fixed zoo model (captured at %.17g from the
    // direct factored transient step, cold-started from the exact
    // DC point): any refactor of the PdnMesh implicit step, the
    // TransientBackend eval or the options plumbing that changes
    // simulated physics -- rather than code shape -- trips this
    // before it drifts a paper figure.
    AimPipeline pipe(pim::PimConfig{},
                     power::defaultCalibration());
    AimOptions o = test::fastServeOptions();
    o.irBackend = power::IrBackendKind::Transient;
    const auto compiled = pipe.compile(workload::resnet18(), o);
    const auto rep = pipe.execute(compiled);
    expectGolden(rep.run,
                 {1795.0877192982448, 91202177, 249.08864225870352,
                  4.6491027888386265, 191.99197330977123,
                  35.595365570312104, 159L, 72L, 735L, 9L,
                  40.530686709640676, 0.11077234394550951});
}

TEST(BackendGolden, MeshResNet18HeadlineDroop)
{
    // The Mesh twin of the transient headline: the layout-level
    // reference backend on the same fixture, so a change to the DC
    // solve, the MeshBackend eval or its dirty-group gating that
    // moves simulated physics shows here.
    AimPipeline pipe(pim::PimConfig{},
                     power::defaultCalibration());
    AimOptions o = test::fastServeOptions();
    o.irBackend = power::IrBackendKind::Mesh;
    const auto compiled = pipe.compile(workload::resnet18(), o);
    const auto rep = pipe.execute(compiled);
    expectGolden(rep.run,
                 {1570.5263157894728, 91202177, 292.286029910526,
                  4.6525177411380758, 70.038820064007226,
                  33.774838720567082, 1L, 3L, 735L, 18L,
                  32.785476344853706, 0.11055945690936674});
}

TEST(BackendGolden, ExplicitAnalyticMatchesDefault)
{
    RunConfig def;
    RunConfig analytic;
    analytic.irBackend = power::IrBackendKind::Analytic;
    const auto a = execute({convRound(0.30, 16, 30'000'000)}, def);
    const auto b =
        execute({convRound(0.30, 16, 30'000'000)}, analytic);
    EXPECT_DOUBLE_EQ(a.tops, b.tops);
    EXPECT_DOUBLE_EQ(a.irMeanMv, b.irMeanMv);
    EXPECT_EQ(a.failures, b.failures);
}
