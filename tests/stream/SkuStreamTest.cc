/**
 * @file
 * Heterogeneous fleets on a streamed source, and the
 * dispatch-layer fixes a mixed fleet forced:
 *
 *  - the acquireGang crash regression: a pool the autoscaler shrank
 *    below the gang size returns an empty acquisition (callers
 *    reactivate and retry) instead of tripping an assertion
 *  - class-aware pool primitives: slot-class gang acquisition,
 *    per-class shrink floors, targeted reactivation
 *  - end-to-end: a mixed-SKU stream is thread-count deterministic,
 *    and an autoscaled gang workload completes with zero placement
 *    violations (tests/serve/ServeGoldenTest pins its report bits)
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "serve/Dispatch.hh"
#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::serve;
using namespace aim::stream;

namespace
{

/** A part too small for GPT2 (~86 Mweight): 32 Mweight capacity. */
ChipSku
tinySku()
{
    ChipSku sku = smallSku();
    sku.name = "tiny";
    sku.weightBufMweightPerMacro = 2.0;
    return sku;
}

/** Two big + two tiny chips with a 2-chip ResNet18 gang (whose
 * members must be the big parts: gangSlotClasses ranks by
 * capacity). */
FleetConfig
mixedGangFleet()
{
    FleetConfig f;
    f.chips = 4;
    f.options = test::fastServeOptions();
    f.seed = 5;
    f.skus = {bigSku(), tinySku()};
    f.skuOf = {0, 0, 1, 1};
    GangSpec g;
    g.model = "ResNet18";
    g.partition.chips = 2;
    g.microBatches = 2;
    f.gangs = {g};
    return f;
}

/** The ganged model plus one every chip can host. */
TraceConfig
mixedTraceConfig(long requests = 16)
{
    TraceConfig t;
    t.arrivals = ArrivalKind::Bursty;
    t.meanRatePerSec = 20000.0;
    t.requests = requests;
    t.seed = 7;
    t.mix = {{"ResNet18", 1.0, 4000.0}, {"MobileNetV2", 1.0, 4000.0}};
    return t;
}

StreamReport
runStream(const StreamConfig &scfg)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    EventLoop loop(cfg, cal, scfg);
    return loop.run(test::sharedCache());
}

} // namespace

// --- The acquireGang crash regression (satellite bugfix) ---------
//
// Historically ChipPool::acquireGang asserted that enough active
// chips existed, which crashed the streaming loop whenever an
// autoscaler shrink raced a gang arrival.  The contract is now an
// empty return the caller recovers from.

TEST(ChipPool, GangAcquisitionSurvivesAutoscalerShrink)
{
    ChipPool pool(4);
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_TRUE(pool.deactivateOne(1));
    ASSERT_EQ(pool.activeCount(), 2);
    // Under the old assert this line died; now it reports "cannot
    // fill" and leaves recovery to the caller.
    EXPECT_TRUE(pool.acquireGang(std::vector<int>(3, 0)).empty());
    // A gang that still fits acquires the earliest-free actives.
    const auto two = pool.acquireGang(std::vector<int>(2, 0));
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], 0);
    EXPECT_EQ(two[1], 1);
    // Reactivating restores three-gang capacity.
    EXPECT_TRUE(pool.activateOne());
    EXPECT_EQ(pool.acquireGang(std::vector<int>(3, 0)).size(), 3u);
}

TEST(ChipPool, ClassAwareGangFillsEachSlotFromItsClass)
{
    ChipPool pool(4);
    pool.setClassOf({0, 1, 0, 1});
    // Two class-0 slots: ids 0 and 2, in slot order.
    auto m = pool.acquireGang(std::vector<int>{0, 0});
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m[0], 0);
    EXPECT_EQ(m[1], 2);
    // Earliest-free wins within a class.
    pool.slot(0).freeAtUs = 10.0;
    m = pool.acquireGang(std::vector<int>{0, 1});
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m[0], 2);
    EXPECT_EQ(m[1], 1);
    // More slots of a class than chips of it: empty, never a
    // partial gang.
    EXPECT_TRUE(
        pool.acquireGang(std::vector<int>{0, 0, 0}).empty());
}

TEST(ChipPool, ShrinkRespectsClassFloorsAndTargetedReactivation)
{
    ChipPool pool(4);
    pool.setClassOf({0, 0, 1, 1});
    // Both class-1 chips pinned: a gang needs them.
    pool.setClassFloor({0, 2});
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_FALSE(pool.deactivateOne(1))
        << "the class floor must block shrinking the gang's chips";
    EXPECT_EQ(pool.activeCount(), 2);
    EXPECT_EQ(pool.activeCountOfClass(0), 0);
    EXPECT_EQ(pool.activeCountOfClass(1), 2);
    // Targeted reactivation wakes a chip of the class a gang slot
    // needs; classes with all chips active report failure.
    EXPECT_TRUE(pool.activateOneOfClasses({0}));
    EXPECT_EQ(pool.activeCountOfClass(0), 1);
    EXPECT_FALSE(pool.activateOneOfClasses({1}));
}

// --- Mixed-SKU end-to-end ----------------------------------------

TEST(SkuStream, ThreadCountBitIdentityOnMixedFleet)
{
    StreamConfig serial;
    serial.fleet = mixedGangFleet();
    serial.trace = mixedTraceConfig();
    auto threaded = serial;
    threaded.fleet.threads = 4;
    test::expectSameReport(runStream(serial), runStream(threaded));
}

TEST(SkuStream, AutoscaledGangStreamCompletesWithoutViolations)
{
    // The end-to-end shape of the original crash: an autoscaler
    // shrinking a mixed fleet while a gang workload streams.  The
    // per-class floors keep the gang's big chips active, recovery
    // reactivates on demand, and the run must drain fully with
    // every request on a capable chip.
    StreamConfig scfg;
    scfg.fleet = mixedGangFleet();
    scfg.trace = mixedTraceConfig(24);
    scfg.controlTickUs = 100.0;
    scfg.autoscaler.enabled = true;
    scfg.autoscaler.targetP99Us = 2000.0;
    scfg.autoscaler.minChips = 1;
    scfg.autoscaler.cooldownUs = 100.0;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.requests, 24);
    EXPECT_GT(rep.gangDispatches, 0);
    EXPECT_EQ(rep.placementViolations, 0);
    EXPECT_GE(rep.gangReactivations, 0);
    // The gang's members are the big chips; both must have worked.
    EXPECT_GT(rep.chips[0].served, 0);
    EXPECT_GT(rep.chips[1].served, 0);
}
