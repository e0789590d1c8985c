/**
 * @file
 * Shared fixtures of the test suites: the zoo-model/options/run-config
 * boilerplate that tests/sim and tests/serve suites previously each
 * carried a private copy of, the serving suites' finite-trace serve,
 * and the bit-for-bit comparisons of run, engine and serve reports.
 *
 * Determinism note: several suites (tests/sim/BackendGoldenTest) pin
 * bit-exact golden numbers to the rounds and streams these helpers
 * build, so their values are part of the repo's golden surface --
 * change them and every captured constant drifts.
 */

#ifndef AIM_TESTS_TESTUTIL_HH
#define AIM_TESTS_TESTUTIL_HH

#include <gtest/gtest.h>

#include "isa/Engine.hh"
#include "sim/Runtime.hh"
#include "stream/EventLoop.hh"

namespace aim::test
{

/**
 * Uniform synthetic round: @p tasks conv tiles of @p macs MACs at a
 * fixed HR, four tiles per Set; @p input_det marks every even task
 * input-determined (QkT) for recompute-path coverage.
 */
inline sim::Round
convRound(double hr, int tasks = 16, long macs = 10'000'000,
          bool input_det = false)
{
    sim::Round r;
    for (int i = 0; i < tasks; ++i) {
        mapping::Task t;
        t.layerName = "conv";
        t.type = input_det ? workload::OpType::QkT
                           : workload::OpType::Conv;
        t.setId = i / 4;
        t.hr = hr;
        t.inputDetermined = input_det && (i % 2 == 0);
        t.macs = macs;
        r.tasks.push_back(t);
    }
    return r;
}

/** The activation stream every chip-level suite runs against. */
inline pim::StreamSpec
stream()
{
    pim::StreamSpec s;
    s.density = 0.55;
    s.nonNegative = true;
    return s;
}

/** Run rounds on a default chip under @p rcfg (seed 0 = config's). */
inline sim::RunReport
execute(const std::vector<sim::Round> &rounds,
        const sim::RunConfig &rcfg, uint64_t seed = 0)
{
    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    sim::Runtime rt(cfg, cal, rcfg);
    return seed == 0 ? rt.run(rounds, stream())
                     : rt.run(rounds, stream(), seed);
}

/**
 * One sequential-mapped round of convRound(hr) tiles through the
 * given droop backend -- the backend suites' standard probe.
 */
inline sim::RunReport
runWith(power::IrBackendKind kind, double hr, uint64_t seed = 31)
{
    sim::RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = kind;
    rcfg.seed = seed;
    return execute({convRound(hr)}, rcfg, seed);
}

/** All-active macro layout of the default 16x4 chip. */
inline std::vector<std::vector<int>>
fullLayout()
{
    std::vector<std::vector<int>> layout(16);
    for (int g = 0; g < 16; ++g)
        for (int m = 0; m < 4; ++m)
            layout[static_cast<size_t>(g)].push_back(g * 4 + m);
    return layout;
}

/** Uniform operating point at nominal V-f for every group. */
inline std::vector<power::GroupWindow>
uniformWindow(double rtog, int groups = 16)
{
    std::vector<power::GroupWindow> gw(static_cast<size_t>(groups));
    for (auto &w : gw) {
        w.active = true;
        w.v = 0.75;
        w.fGhz = 1.0;
        w.rtog = rtog;
    }
    return gw;
}

/**
 * Fast-compiling serving options shared by the fleet suites: QAT
 * skipped, small work scale, sequential mapping.
 */
inline AimOptions
fastServeOptions()
{
    AimOptions o;
    o.useLhr = false; // skip QAT: compile in ms
    o.workScale = 0.05;
    o.mapper = mapping::MapperKind::Sequential;
    return o;
}

/**
 * Process-wide compiled-artifact cache: compiles are the slow part
 * of every serving test, so all suites share one cache (and the
 * pipeline that must outlive it).
 */
inline serve::ModelCache &
sharedCache()
{
    static AimPipeline pipe{pim::PimConfig{},
                            power::defaultCalibration()};
    static serve::ModelCache cache(pipe);
    return cache;
}

/** Two-model trace config of the fleet/stream suites. */
inline serve::TraceConfig
serveTraceConfig(long requests = 24,
                 serve::ArrivalKind arrivals =
                     serve::ArrivalKind::Poisson,
                 double slo_us = 4000.0)
{
    serve::TraceConfig t;
    t.arrivals = arrivals;
    t.meanRatePerSec = 20000.0;
    t.requests = requests;
    t.seed = 7;
    t.mix = {{"ResNet18", 1.0, slo_us},
             {"MobileNetV2", 1.0, slo_us}};
    return t;
}

/** Two-model request trace of the fleet suites. */
inline std::vector<serve::Request>
serveTrace(long requests = 24,
           serve::ArrivalKind arrivals = serve::ArrivalKind::Poisson,
           double slo_us = 4000.0)
{
    return generateTrace(
        serveTraceConfig(requests, arrivals, slo_us));
}

/**
 * Serve the finite @p trace on @p fleet through the serving engine's
 * finite-trace entry (control plane off, exact service), on the
 * default chip and the shared cache.
 */
inline stream::StreamReport
serveFleet(const serve::FleetConfig &fleet,
           const std::vector<serve::Request> &trace)
{
    stream::StreamConfig scfg;
    scfg.fleet = fleet;
    return stream::EventLoop(pim::PimConfig{},
                             power::defaultCalibration(), scfg)
        .run(sharedCache(), trace);
}

/** Bit-for-bit RunReport comparison (exact ==, not near). */
inline void
expectSameRun(const sim::RunReport &a, const sim::RunReport &b)
{
    EXPECT_EQ(a.wallTimeNs, b.wallTimeNs);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    EXPECT_EQ(a.tops, b.tops);
    EXPECT_EQ(a.macroPowerMw, b.macroPowerMw);
    EXPECT_EQ(a.irWorstMv, b.irWorstMv);
    EXPECT_EQ(a.irMeanMv, b.irMeanMv);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.usefulWindows, b.usefulWindows);
    EXPECT_EQ(a.vfSwitches, b.vfSwitches);
    EXPECT_EQ(a.meanLevel, b.meanLevel);
    EXPECT_EQ(a.meanRtog, b.meanRtog);
    ASSERT_EQ(a.roundLatencyNs.size(), b.roundLatencyNs.size());
    for (size_t i = 0; i < a.roundLatencyNs.size(); ++i)
        EXPECT_EQ(a.roundLatencyNs[i], b.roundLatencyNs[i]) << i;
}

/** Bit-for-bit EngineReport comparison: the run plus every
 * instruction-level counter, the tail idle and both makespans. */
inline void
expectSameEngine(const isa::EngineReport &a, const isa::EngineReport &b)
{
    expectSameRun(a.run, b.run);
    EXPECT_EQ(a.decoded, b.decoded);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.issuedByOp, b.issuedByOp);
    EXPECT_EQ(a.fusedMacs, b.fusedMacs);
    EXPECT_EQ(a.tailIdleNs, b.tailIdleNs);
    EXPECT_EQ(a.inOrderMakespanNs, b.inOrderMakespanNs);
    EXPECT_EQ(a.scheduledMakespanNs, b.scheduledMakespanNs);
    EXPECT_EQ(a.scheduleSavedNs, b.scheduleSavedNs);
}

/**
 * Field-by-field bit-identity of two serve reports: every field
 * render() prints, the per-request digests and the control
 * trajectory.  The cache counters are left out -- they are deltas of
 * the process-wide cache, so they depend on which tests ran first.
 */
inline void
expectSameReport(const stream::StreamReport &a,
                 const stream::StreamReport &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.isa, b.isa);
    EXPECT_EQ(a.reloadOverlapSavedUs, b.reloadOverlapSavedUs);
    EXPECT_EQ(a.scheduleSavedUs, b.scheduleSavedUs);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.sloViolations, b.sloViolations);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    EXPECT_EQ(a.irFailures, b.irFailures);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.gangDispatches, b.gangDispatches);
    EXPECT_EQ(a.placementViolations, b.placementViolations);
    EXPECT_EQ(a.gangReactivations, b.gangReactivations);
    EXPECT_EQ(a.batchedRequests, b.batchedRequests);
    EXPECT_EQ(a.scaleUps, b.scaleUps);
    EXPECT_EQ(a.scaleDowns, b.scaleDowns);
    EXPECT_EQ(a.p50Us, b.p50Us);
    EXPECT_EQ(a.p95Us, b.p95Us);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(a.meanUs, b.meanUs);
    ASSERT_EQ(a.latencyUs.size(), b.latencyUs.size());
    ASSERT_EQ(a.queueUs.size(), b.queueUs.size());
    for (size_t i = 0; i < a.latencyUs.size(); ++i) {
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]) << "request " << i;
        EXPECT_EQ(a.queueUs[i], b.queueUs[i]) << "request " << i;
    }
    ASSERT_EQ(a.chips.size(), b.chips.size());
    for (size_t c = 0; c < a.chips.size(); ++c) {
        EXPECT_EQ(a.chips[c].served, b.chips[c].served) << "chip " << c;
        EXPECT_EQ(a.chips[c].busyUs, b.chips[c].busyUs) << "chip " << c;
        EXPECT_EQ(a.chips[c].reloadUs, b.chips[c].reloadUs)
            << "chip " << c;
        EXPECT_EQ(a.chips[c].retuneUs, b.chips[c].retuneUs)
            << "chip " << c;
        EXPECT_EQ(a.chips[c].modelSwitches, b.chips[c].modelSwitches)
            << "chip " << c;
    }
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t t = 0; t < a.trajectory.size(); ++t) {
        const auto &x = a.trajectory[t];
        const auto &y = b.trajectory[t];
        EXPECT_EQ(x.tUs, y.tUs) << "tick " << t;
        EXPECT_EQ(x.activeChips, y.activeChips) << "tick " << t;
        EXPECT_EQ(x.windowP99Us, y.windowP99Us) << "tick " << t;
        EXPECT_EQ(x.queueDepth, y.queueDepth) << "tick " << t;
        EXPECT_EQ(x.shedRate, y.shedRate) << "tick " << t;
    }
}

} // namespace aim::test

#endif // AIM_TESTS_TESTUTIL_HH
