/**
 * @file
 * The serving engine against its contract (its report bits on the
 * control-free configurations are pinned by
 * tests/serve/ServeGoldenTest):
 *
 *  - determinism: the report is independent of --threads in every
 *    service mode
 *  - control: admission bounds the queue at overload, the autoscaler
 *    grows the pool on a ramp, batching coalesces same-model queue
 *    neighbours, and the histogram digest tracks the exact one
 *  - finite traces (the Fleet suite, run(cache, trace) on a 2-chip
 *    fleet): every request is served once and never before it
 *    arrives, percentiles are ordered, the IR-aware policy cuts
 *    model switches, SLOs are accounted, and an empty trace yields
 *    an empty report
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "util/Stats.hh"

using namespace aim;
using namespace aim::serve;
using namespace aim::stream;

namespace
{

FleetConfig
fleetConfig(SchedPolicy policy, int threads, int chips = 3)
{
    FleetConfig f;
    f.chips = chips;
    f.policy = policy;
    f.options = test::fastServeOptions();
    f.seed = 5;
    f.threads = threads;
    return f;
}

/** Control-free stream over the fleet suites' finite trace. */
StreamConfig
compatConfig(SchedPolicy policy, int threads,
             ArrivalKind kind = ArrivalKind::Bursty,
             long requests = 24)
{
    StreamConfig s;
    s.fleet = fleetConfig(policy, threads);
    s.trace = test::serveTraceConfig(requests, kind);
    return s;
}

StreamReport
runStream(const StreamConfig &scfg)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    EventLoop loop(cfg, cal, scfg);
    return loop.run(test::sharedCache());
}

/** The Fleet suite's serve: the Poisson trace on 2 serial chips. */
StreamReport
serveFinite(SchedPolicy policy, long requests = 24)
{
    return test::serveFleet(fleetConfig(policy, 1, 2),
                            test::serveTrace(requests));
}

} // namespace

TEST(EventLoop, ReportIsIndependentOfThreads)
{
    const auto serial = runStream(compatConfig(SchedPolicy::Sjf, 1));
    for (int threads : {2, 4})
        test::expectSameReport(
            serial,
            runStream(compatConfig(SchedPolicy::Sjf, threads)));
}

TEST(EventLoop, SampledHistogramModeIsIndependentOfThreads)
{
    // The 1M-request bench's mode: sampled service + histogram
    // latency.  Still a deterministic function of the config.
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1);
    scfg.serviceSamples = 3;
    scfg.histogramLatency = true;
    const auto serial = runStream(scfg);
    EXPECT_EQ(serial.requests, 24);
    EXPECT_TRUE(serial.latencyUs.empty());
    scfg.fleet.threads = 4;
    test::expectSameReport(serial, runStream(scfg));
}

TEST(EventLoop, HistogramDigestTracksExactPercentiles)
{
    const StreamConfig exact = compatConfig(SchedPolicy::Fcfs, 1);
    StreamConfig bucketed = exact;
    bucketed.histogramLatency = true;
    const auto e = runStream(exact);
    const auto b = runStream(bucketed);
    // Identical schedule, different digest: percentiles agree within
    // the bucket resolution, the exact mean exactly.
    EXPECT_EQ(e.makespanUs, b.makespanUs);
    EXPECT_NEAR(b.p50Us, e.p50Us, e.p50Us * 0.10);
    EXPECT_NEAR(b.p99Us, e.p99Us, e.p99Us * 0.10);
    EXPECT_DOUBLE_EQ(b.meanUs, e.meanUs);
}

TEST(EventLoop, AdmissionBoundsTheQueueAtOverload)
{
    // 10x the rate the 3 chips can serve, bounded queue: the loop
    // must shed instead of queueing without bound, and every control
    // sample must respect the depth bound.
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Poisson, 60);
    scfg.trace.meanRatePerSec = 200000.0;
    scfg.admission.maxQueueDepth = 4;
    scfg.controlTickUs = 50.0;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.arrivals, 60);
    EXPECT_EQ(rep.admitted + rep.shed, rep.arrivals);
    EXPECT_GT(rep.shed, 0);
    EXPECT_EQ(rep.requests, rep.admitted);
    EXPECT_GT(rep.shedRate(), 0.0);
    ASSERT_FALSE(rep.trajectory.empty());
    for (const auto &sample : rep.trajectory)
        EXPECT_LE(sample.queueDepth, scfg.admission.maxQueueDepth);
    // Shed requests carry the -1 sentinel in the exact digests.
    long shed_seen = 0;
    for (const double l : rep.latencyUs)
        shed_seen += l < 0.0;
    EXPECT_EQ(shed_seen, rep.shed);
}

TEST(EventLoop, AutoscalerGrowsThePoolUnderLoad)
{
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Diurnal, 60);
    scfg.fleet.chips = 4;
    scfg.trace.meanRatePerSec = 100000.0;
    scfg.controlTickUs = 50.0;
    scfg.autoscaler.enabled = true;
    scfg.autoscaler.targetP99Us = 500.0;
    scfg.autoscaler.minChips = 1;
    scfg.autoscaler.cooldownUs = 50.0;
    scfg.autoscaler.window = 16;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.requests, 60);
    EXPECT_GT(rep.scaleUps, 0);
    ASSERT_FALSE(rep.trajectory.empty());
    bool grew = false;
    for (const auto &sample : rep.trajectory) {
        EXPECT_GE(sample.activeChips, 1);
        EXPECT_LE(sample.activeChips, scfg.fleet.chips);
        grew |= sample.activeChips > 1;
    }
    EXPECT_TRUE(grew);
}

TEST(EventLoop, BatchingCoalescesSameModelQueueNeighbours)
{
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Bursty, 40);
    scfg.trace.meanRatePerSec = 100000.0; // deep queues -> batches
    scfg.maxBatch = 4;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.requests, 40);
    EXPECT_GT(rep.batchedRequests, 0);
    // Followers piggyback on the leader's reload: strictly fewer
    // reload events than the unbatched replay of the same stream.
    StreamConfig unbatched = scfg;
    unbatched.maxBatch = 1;
    const auto base = runStream(unbatched);
    double batched_reload = 0.0, base_reload = 0.0;
    for (size_t c = 0; c < rep.chips.size(); ++c) {
        batched_reload += rep.chips[c].reloadUs;
        base_reload += base.chips[c].reloadUs;
    }
    EXPECT_LT(batched_reload, base_reload);
}

TEST(EventLoop, TransientCarryModeIsDeterministic)
{
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Bursty, 12);
    scfg.fleet.options.irBackend = power::IrBackendKind::Transient;
    scfg.transientCarry = true;
    const auto a = runStream(scfg);
    EXPECT_EQ(a.requests, 12);
    // Carry serializes execution at dispatch, so the thread knob
    // must not matter even in principle.
    scfg.fleet.threads = 4;
    test::expectSameReport(a, runStream(scfg));
}

TEST(EventLoop, CacheCountersReportRunDeltas)
{
    const StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1);
    runStream(scfg); // warm the shared cache
    const auto warm = runStream(scfg);
    EXPECT_EQ(warm.cacheMisses, 0);
    EXPECT_EQ(warm.cacheHits, 24);
    EXPECT_NE(warm.render().find("model cache"), std::string::npos);
}

TEST(EventLoop, FiniteTraceRejectsIdsOutsideTheHorizon)
{
    // An id indexes the per-request latency vectors: one past the
    // trace would write out of bounds.
    auto trace = generateTrace(test::serveTraceConfig(4));
    trace[2].id = 4;
    EventLoop loop(pim::PimConfig{}, power::defaultCalibration(),
                   compatConfig(SchedPolicy::Fcfs, 1));
    EXPECT_DEATH(loop.run(test::sharedCache(), trace), "dense in");
}

TEST(EventLoop, FiniteTraceRejectsUnsortedArrivals)
{
    // Out-of-order arrivals would run simulated time backwards.
    auto trace = generateTrace(test::serveTraceConfig(4));
    std::swap(trace[1].arrivalUs, trace[2].arrivalUs);
    ASSERT_LT(trace[2].arrivalUs, trace[1].arrivalUs);
    EventLoop loop(pim::PimConfig{}, power::defaultCalibration(),
                   compatConfig(SchedPolicy::Fcfs, 1));
    EXPECT_DEATH(loop.run(test::sharedCache(), trace),
                 "sorted by arrival");
}

// --- Finite traces: run(cache, trace) -----------------------------

TEST(Fleet, ServesEveryRequest)
{
    const auto rep = serveFinite(SchedPolicy::Fcfs);
    EXPECT_EQ(rep.requests, 24);
    ASSERT_EQ(rep.latencyUs.size(), 24u);
    ASSERT_EQ(rep.queueUs.size(), 24u);
    for (size_t i = 0; i < rep.latencyUs.size(); ++i) {
        EXPECT_GT(rep.latencyUs[i], 0.0) << "request " << i;
        EXPECT_GE(rep.queueUs[i], 0.0) << "request " << i;
        EXPECT_GE(rep.latencyUs[i], rep.queueUs[i]);
    }
    long served = 0;
    for (const auto &c : rep.chips)
        served += c.served;
    EXPECT_EQ(served, 24);
    EXPECT_GT(rep.makespanUs, 0.0);
    EXPECT_GT(rep.totalMacs, 0.0);
    EXPECT_GT(rep.aggregateTops(), 0.0);
    EXPECT_GT(rep.throughputRps(), 0.0);
}

TEST(Fleet, PercentilesAreOrdered)
{
    const auto rep = serveFinite(SchedPolicy::Fcfs);
    EXPECT_GT(rep.p50Us, 0.0);
    EXPECT_LE(rep.p50Us, rep.p95Us);
    EXPECT_LE(rep.p95Us, rep.p99Us);
    EXPECT_EQ(rep.p50Us, util::percentile(rep.latencyUs, 50.0));
    EXPECT_EQ(rep.p99Us, util::percentile(rep.latencyUs, 99.0));
}

TEST(Fleet, IrAwareReducesModelSwitches)
{
    const auto fcfs = serveFinite(SchedPolicy::Fcfs, 40);
    const auto ir = serveFinite(SchedPolicy::IrAware, 40);
    EXPECT_LE(ir.totalModelSwitches(), fcfs.totalModelSwitches());
    // Both serve identical work, so the switch savings show up as
    // less reload time.
    double fcfs_reload = 0.0;
    double ir_reload = 0.0;
    for (int c = 0; c < 2; ++c) {
        fcfs_reload += fcfs.chips[c].reloadUs;
        ir_reload += ir.chips[c].reloadUs;
    }
    EXPECT_LE(ir_reload, fcfs_reload);
}

TEST(Fleet, TightSloIsViolatedLooseIsNot)
{
    auto tight = test::serveTrace();
    for (auto &r : tight)
        r.sloUs = 1e-3;
    const auto rep =
        test::serveFleet(fleetConfig(SchedPolicy::Fcfs, 1, 2), tight);
    EXPECT_EQ(rep.sloViolations, rep.requests);

    auto loose = test::serveTrace();
    for (auto &r : loose)
        r.sloUs = 1e9;
    const auto rep2 =
        test::serveFleet(fleetConfig(SchedPolicy::Fcfs, 1, 2), loose);
    EXPECT_EQ(rep2.sloViolations, 0);
}

TEST(Fleet, EmptyTraceYieldsEmptyReport)
{
    // Nothing completes, so the exact digest has no latency to take
    // percentiles of; they stay 0 as in histogram mode.
    const auto rep =
        test::serveFleet(fleetConfig(SchedPolicy::Fcfs, 1, 2), {});
    EXPECT_EQ(rep.requests, 0);
    EXPECT_EQ(rep.makespanUs, 0.0);
    EXPECT_TRUE(rep.latencyUs.empty());
    EXPECT_TRUE(rep.queueUs.empty());
    EXPECT_EQ(rep.p99Us, 0.0);
    ASSERT_EQ(rep.chips.size(), 2u);
    for (const auto &c : rep.chips)
        EXPECT_EQ(c.served, 0);
}

TEST(Fleet, SingleChipSerializesRequests)
{
    FleetConfig fcfg = fleetConfig(SchedPolicy::Fcfs, 1, 2);
    fcfg.chips = 1;
    const auto rep = test::serveFleet(fcfg, test::serveTrace(8));
    ASSERT_EQ(rep.chips.size(), 1u);
    EXPECT_EQ(rep.chips[0].served, 8);
    // Makespan covers at least the chip's total busy + reload time.
    EXPECT_GE(rep.makespanUs + 1e-9,
              rep.chips[0].busyUs + rep.chips[0].reloadUs);
}

TEST(Fleet, NothingStartsBeforeItArrives)
{
    // Bunched late arrivals on idle chips: a buggy dispatcher
    // serves a request before its arrival time, which shows up as
    // negative queueing delay.
    std::vector<Request> bunched;
    for (long i = 0; i < 6; ++i) {
        Request r;
        r.id = i;
        r.model = "ResNet18";
        r.arrivalUs = 1000.0 + 10.0 * (i / 3);
        r.sloUs = 1e9;
        bunched.push_back(r);
    }
    const auto rep =
        test::serveFleet(fleetConfig(SchedPolicy::Sjf, 1, 2), bunched);
    for (long i = 0; i < 6; ++i) {
        EXPECT_GE(rep.queueUs[i], 0.0) << "request " << i;
        EXPECT_GT(rep.latencyUs[i], 0.0) << "request " << i;
    }
}

TEST(Fleet, RenderMentionsHeadlineNumbers)
{
    const auto text = serveFinite(SchedPolicy::Sjf).render();
    EXPECT_NE(text.find("sjf"), std::string::npos);
    EXPECT_NE(text.find("p99"), std::string::npos);
    EXPECT_NE(text.find("model switches"), std::string::npos);
    EXPECT_NE(text.find("effective TOPS"), std::string::npos);
    EXPECT_NE(text.find("per-chip"), std::string::npos);
}
