/**
 * @file
 * Unit behaviour of the streaming control plane: autoscaler
 * thresholds and cooldown, admission shedding, the log-bucket
 * latency histogram's accuracy envelope, ChipPool activation, and
 * StreamConfig validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "TestUtil.hh"
#include "serve/Dispatch.hh"
#include "stream/EventLoop.hh"
#include "util/Rng.hh"
#include "util/Stats.hh"

using namespace aim;
using namespace aim::stream;

namespace
{

AutoscalerConfig
scalerConfig()
{
    AutoscalerConfig c;
    c.enabled = true;
    c.targetP99Us = 1000.0;
    c.highWatermark = 1.0;
    c.lowWatermark = 0.4;
    c.minChips = 1;
    c.cooldownUs = 100.0;
    c.backlogPerChip = 4.0;
    return c;
}

} // namespace

TEST(Autoscaler, GrowsOnHighTailAndShrinksOnLowTail)
{
    Autoscaler s(scalerConfig());
    // Tail above target -> grow.
    EXPECT_EQ(s.tick(0.0, 1500.0, 0, 2), ScaleAction::Up);
    // Cooldown swallows the immediate follow-up.
    EXPECT_EQ(s.tick(50.0, 1500.0, 0, 3), ScaleAction::None);
    // Past cooldown, a comfortable tail with a drained queue shrinks.
    EXPECT_EQ(s.tick(200.0, 300.0, 0, 3), ScaleAction::Down);
    // Never below the floor.
    EXPECT_EQ(s.tick(400.0, 300.0, 0, 1), ScaleAction::None);
}

TEST(Autoscaler, BacklogTriggersGrowthBeforeAnyWindowLands)
{
    Autoscaler s(scalerConfig());
    // No completions yet (p99 < 0) but 9 queued on 2 chips > 4/chip.
    EXPECT_EQ(s.tick(0.0, -1.0, 9, 2), ScaleAction::Up);
    // An unmeasured window alone never shrinks.
    EXPECT_EQ(s.tick(500.0, -1.0, 0, 3), ScaleAction::None);
}

TEST(Autoscaler, MidBandHoldsAndDisabledNeverActs)
{
    Autoscaler s(scalerConfig());
    // Between the watermarks: hold.
    EXPECT_EQ(s.tick(0.0, 700.0, 0, 2), ScaleAction::None);
    Autoscaler off{AutoscalerConfig{}};
    EXPECT_EQ(off.tick(0.0, 1e9, 1000, 1), ScaleAction::None);
}

TEST(AdmissionController, BoundedQueueShedsAtDepth)
{
    AdmissionConfig cfg;
    cfg.maxQueueDepth = 3;
    AdmissionController adm(cfg);
    EXPECT_TRUE(adm.admit(0));
    EXPECT_TRUE(adm.admit(2));
    EXPECT_FALSE(adm.admit(3));
    EXPECT_FALSE(adm.admit(5));
    EXPECT_EQ(adm.admitted(), 2);
    EXPECT_EQ(adm.shed(), 2);
    EXPECT_DOUBLE_EQ(adm.shedRate(), 0.5);
}

TEST(AdmissionController, UnboundedAdmitsEverything)
{
    AdmissionController adm{AdmissionConfig{}};
    for (long d = 0; d < 1000; d += 100)
        EXPECT_TRUE(adm.admit(d));
    EXPECT_EQ(adm.shed(), 0);
    EXPECT_DOUBLE_EQ(adm.shedRate(), 0.0);
}

// LatencyHistogram coverage lives in LatencyHistogramTest.cc: a
// property suite over randomized latency populations (percentile
// accuracy vs. exact order statistics, monotonicity, boundary
// folding).

TEST(ChipPool, ActivationControlsDispatchability)
{
    serve::ChipPool pool(3);
    EXPECT_EQ(pool.activeCount(), 3);
    // Shrink twice down to the floor of 1; a third refuses.
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_FALSE(pool.deactivateOne(1));
    EXPECT_EQ(pool.activeCount(), 1);
    // deactivateOne takes the highest-id active chip, so chip 0
    // remains the dispatchable one.
    EXPECT_TRUE(pool.slot(0).active);
    EXPECT_FALSE(pool.slot(1).active);
    EXPECT_FALSE(pool.slot(2).active);
    // Growth restores the lowest-id inactive chip first.
    EXPECT_TRUE(pool.activateOne());
    EXPECT_TRUE(pool.slot(1).active);
    EXPECT_FALSE(pool.slot(2).active);
    EXPECT_EQ(pool.activeCount(), 2);
}

TEST(StreamConfigValidation, ComposesAndChecksStreamKnobs)
{
    StreamConfig scfg;
    scfg.fleet.options = test::fastServeOptions();
    scfg.trace = test::serveTraceConfig();
    EXPECT_EQ(validateStreamConfig(scfg), "");

    StreamConfig bad = scfg;
    bad.fleet.chips = 0;
    EXPECT_NE(validateStreamConfig(bad).find("fleet"),
              std::string::npos);

    // The generator config is checked where run(cache) reads it
    // (TraceSource), so a finite-trace caller may leave it default.
    StreamConfig finite = scfg;
    finite.trace = {};
    EXPECT_EQ(validateStreamConfig(finite), "");

    bad = scfg;
    bad.maxBatch = 0;
    EXPECT_NE(validateStreamConfig(bad).find("maxBatch"),
              std::string::npos);

    bad = scfg;
    bad.serviceSamples = -1;
    EXPECT_NE(validateStreamConfig(bad).find("serviceSamples"),
              std::string::npos);

    bad = scfg;
    bad.transientCarry = true;
    bad.serviceSamples = 8;
    EXPECT_NE(validateStreamConfig(bad).find("transientCarry"),
              std::string::npos);

    // The autoscaler needs a control period to act in.
    bad = scfg;
    bad.autoscaler.enabled = true;
    bad.autoscaler.targetP99Us = 1000.0;
    bad.controlTickUs = 0.0;
    EXPECT_NE(validateStreamConfig(bad).find("controlTickUs"),
              std::string::npos);

    bad.controlTickUs = 100.0;
    EXPECT_EQ(validateStreamConfig(bad), "");
    bad.autoscaler.minChips = bad.fleet.chips + 1;
    EXPECT_NE(validateStreamConfig(bad).find("minChips"),
              std::string::npos);
}

TEST(StreamConfigValidationDeath, EventLoopIsFatalOnBadConfig)
{
    StreamConfig scfg;
    scfg.fleet.options = test::fastServeOptions();
    scfg.trace = test::serveTraceConfig();
    scfg.maxRequests = -1;
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    EXPECT_DEATH((EventLoop{cfg, cal, scfg}),
                 "invalid StreamConfig");
}
