#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "aim/Aim.hh"

using namespace aim;

namespace
{

/** Bit-identical comparison of two full pipeline reports. */
void
expectIdentical(const AimReport &a, const AimReport &b)
{
    EXPECT_EQ(a.hrAverage, b.hrAverage);
    EXPECT_EQ(a.hrMax, b.hrMax);
    EXPECT_EQ(a.baselineHrAverage, b.baselineHrAverage);
    EXPECT_EQ(a.baselineHrMax, b.baselineHrMax);
    EXPECT_EQ(a.wdsClampedFraction, b.wdsClampedFraction);
    EXPECT_EQ(a.accuracy.metric, b.accuracy.metric);
    EXPECT_EQ(a.run.wallTimeNs, b.run.wallTimeNs);
    EXPECT_EQ(a.run.totalMacs, b.run.totalMacs);
    EXPECT_EQ(a.run.tops, b.run.tops);
    EXPECT_EQ(a.run.macroPowerMw, b.run.macroPowerMw);
    EXPECT_EQ(a.run.irWorstMv, b.run.irWorstMv);
    EXPECT_EQ(a.run.irMeanMv, b.run.irMeanMv);
    EXPECT_EQ(a.run.failures, b.run.failures);
    EXPECT_EQ(a.run.stallWindows, b.run.stallWindows);
    EXPECT_EQ(a.run.usefulWindows, b.run.usefulWindows);
    EXPECT_EQ(a.run.vfSwitches, b.run.vfSwitches);
    EXPECT_EQ(a.run.meanLevel, b.run.meanLevel);
    EXPECT_EQ(a.run.meanRtog, b.run.meanRtog);
    ASSERT_EQ(a.run.roundLatencyNs.size(),
              b.run.roundLatencyNs.size());
    for (size_t i = 0; i < a.run.roundLatencyNs.size(); ++i)
        EXPECT_EQ(a.run.roundLatencyNs[i], b.run.roundLatencyNs[i]);
    EXPECT_EQ(a.irMitigationVsSignoff, b.irMitigationVsSignoff);
    EXPECT_EQ(a.efficiencyGain, b.efficiencyGain);
}

} // namespace

TEST(Determinism, PipelineRunIsBitIdentical)
{
    pim::PimConfig cfg;
    AimPipeline pipe(cfg, power::defaultCalibration());
    const auto model = workload::resnet18();
    AimOptions opts;
    opts.workScale = 0.05;
    opts.seed = 123;
    expectIdentical(pipe.run(model, opts), pipe.run(model, opts));
}

TEST(Determinism, CompileThenExecuteMatchesRun)
{
    pim::PimConfig cfg;
    AimPipeline pipe(cfg, power::defaultCalibration());
    const auto model = workload::resnet18();
    AimOptions opts;
    opts.useLhr = false; // keep the double compile cheap
    opts.workScale = 0.05;
    const auto compiled = pipe.compile(model, opts);
    expectIdentical(pipe.execute(compiled), pipe.run(model, opts));
}

TEST(Determinism, ServeSimIsBitIdentical)
{
    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    AimPipeline pipe(cfg, cal);
    serve::ModelCache cache(pipe);

    stream::StreamConfig scfg;
    scfg.trace.arrivals = serve::ArrivalKind::Bursty;
    scfg.trace.meanRatePerSec = 20000.0;
    scfg.trace.requests = 16;
    scfg.trace.seed = 31;
    scfg.trace.mix = {{"ResNet18", 1.0, 4000.0}};

    scfg.fleet.chips = 2;
    scfg.fleet.policy = serve::SchedPolicy::IrAware;
    scfg.fleet.options = test::fastServeOptions();
    scfg.fleet.seed = 77;

    const auto a = stream::EventLoop(cfg, cal, scfg).run(cache);
    const auto b = stream::EventLoop(cfg, cal, scfg).run(cache);
    EXPECT_EQ(a.requests, 16);
    test::expectSameReport(a, b);
}
