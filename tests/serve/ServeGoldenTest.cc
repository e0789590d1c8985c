/**
 * @file
 * Report-bit goldens of the serving engine.
 *
 * Each record pins one serving configuration's report as it stood
 * when the finite-trace replay was still a separate engine from the
 * streaming loop: makespan, p50, p99 and total MACs at %.17g, an
 * FNV-1a hash over the per-request latency and queueing vectors, the
 * per-chip usage and the counters.  Every configuration is served
 * three ways -- serve::Fleet at 1 and 4 host threads, and the
 * stream::EventLoop pulling the same trace from its lazy TraceSource
 * at 2 threads -- and all three must reproduce the record bit for
 * bit.  Cache counters are left out: the suites share one
 * process-wide ModelCache, so they depend on test order.
 *
 * The overload records pin streamed runs whose queue grows to
 * hundreds of requests -- policy order under a deep queue, batch
 * fill, admission and the autoscaler -- as they stood when pending
 * requests were still one flat, linearly scanned vector.  They serve
 * with sampled service and exact latency vectors at 1, 2 and 4 host
 * threads.
 *
 * A mismatch prints the observed record in initializer syntax; a
 * deliberate re-capture pastes it over the stale one.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "TestUtil.hh"
#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

struct ChipBits
{
    long served;
    double busyUs;
    double reloadUs;
    double retuneUs;
    long modelSwitches;

    bool operator==(const ChipBits &) const = default;
};

struct Golden
{
    long requests;
    double makespanUs;
    double p50Us;
    double p99Us;
    double totalMacs;
    /** FNV-1a over latencyUs then queueUs, in id order. */
    uint64_t latencyHash;
    long sloViolations;
    long irFailures;
    long stallWindows;
    long gangDispatches;
    long placementViolations;
    double reloadOverlapSavedUs;
    double scheduleSavedUs;
    std::vector<ChipBits> chips;

    bool operator==(const Golden &) const = default;
};

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

/** Fold the 8 bytes of @p bits, low byte first, into FNV-1a @p h. */
void
fold(uint64_t &h, uint64_t bits)
{
    for (int k = 0; k < 8; ++k) {
        h ^= (bits >> (8 * k)) & 0xff;
        h *= 1099511628211ULL;
    }
}

void
fold(uint64_t &h, double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    fold(h, bits);
}

uint64_t
fnv1a(const std::vector<double> &a, const std::vector<double> &b)
{
    uint64_t h = kFnvBasis;
    for (const auto *v : {&a, &b})
        for (const double d : *v)
            fold(h, d);
    return h;
}

/** Per-chip usage bits of a ServeReport or a StreamReport. */
template <typename Report>
std::vector<ChipBits>
chipBits(const Report &r)
{
    std::vector<ChipBits> bits;
    for (const auto &c : r.chips)
        bits.push_back({c.served, c.busyUs, c.reloadUs, c.retuneUs,
                        c.modelSwitches});
    return bits;
}

/** Append @p chips to a rendered record and close it. */
std::string
renderChips(std::string s, const std::vector<ChipBits> &chips)
{
    char buf[256];
    for (size_t c = 0; c < chips.size(); ++c) {
        const auto &u = chips[c];
        std::snprintf(buf, sizeof buf, "%s{%ld, %.17g, %.17g, %.17g, %ld}",
                      c ? ",\n  " : "", u.served, u.busyUs, u.reloadUs,
                      u.retuneUs, u.modelSwitches);
        s += buf;
    }
    return s + "}}";
}

/** The golden fields of a ServeReport or a StreamReport. */
template <typename Report>
Golden
record(const Report &r)
{
    return {r.requests,      r.makespanUs,
            r.p50Us,         r.p99Us,
            r.totalMacs,     fnv1a(r.latencyUs, r.queueUs),
            r.sloViolations, r.irFailures,
            r.stallWindows,  r.gangDispatches,
            r.placementViolations,
            r.reloadOverlapSavedUs,
            r.scheduleSavedUs,
            chipBits(r)};
}

std::string
render(const Golden &g)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{%ld, %.17g, %.17g, %.17g,\n"
                  " %.17g, 0x%016" PRIx64 "ULL, %ld, %ld, %ld, %ld, %ld,\n"
                  " %.17g, %.17g,\n {",
                  g.requests, g.makespanUs, g.p50Us, g.p99Us,
                  g.totalMacs, g.latencyHash, g.sloViolations,
                  g.irFailures, g.stallWindows, g.gangDispatches,
                  g.placementViolations, g.reloadOverlapSavedUs,
                  g.scheduleSavedUs);
    return renderChips(buf, g.chips);
}

void
expectGolden(const Golden &want, const Golden &got,
             const std::string &what)
{
    EXPECT_TRUE(got == want)
        << what << " drifted; observed record:\n" << render(got);
}

/**
 * Serve @p tcfg on @p fcfg through Fleet at 1 and 4 threads and
 * through the streaming loop at 2 threads; all three must match
 * @p want.
 */
void
expectServes(const Golden &want, FleetConfig fcfg,
             const TraceConfig &tcfg)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const auto trace = generateTrace(tcfg);
    for (const int threads : {1, 4}) {
        fcfg.threads = threads;
        Fleet fleet(cfg, cal, fcfg);
        expectGolden(want,
                     record(fleet.serve(trace, test::sharedCache())),
                     "Fleet, " + std::to_string(threads) + " threads");
    }
    stream::StreamConfig scfg;
    scfg.fleet = fcfg;
    scfg.fleet.threads = 2;
    scfg.trace = tcfg;
    stream::EventLoop loop(cfg, cal, scfg);
    expectGolden(want, record(loop.run(test::sharedCache())),
                 "EventLoop stream, 2 threads");
}

FleetConfig
fleetConfig(SchedPolicy policy, int chips = 3)
{
    FleetConfig f;
    f.chips = chips;
    f.policy = policy;
    f.options = test::fastServeOptions();
    f.seed = 5;
    return f;
}

GangSpec
resnetGang()
{
    GangSpec gang;
    gang.model = "ResNet18";
    gang.partition.chips = 2;
    gang.microBatches = 2;
    return gang;
}

/** Two big + two tiny chips (tiny: 32 Mweight, too small for GPT2). */
FleetConfig
mixedFleet()
{
    ChipSku tiny = smallSku();
    tiny.name = "tiny";
    tiny.weightBufMweightPerMacro = 2.0;
    FleetConfig f = fleetConfig(SchedPolicy::Fcfs, 4);
    f.skus = {bigSku(), tiny};
    f.skuOf = {0, 0, 1, 1};
    return f;
}

TraceConfig
mixedTrace(std::vector<TraceMix> mix)
{
    TraceConfig t = test::serveTraceConfig(16, ArrivalKind::Bursty);
    t.mix = std::move(mix);
    return t;
}

/**
 * Report bits of an overloaded stream: the queue grows deep, so the
 * record pins which request each policy picks, batch fill, admission
 * and the autoscaler, beyond what the light-load records can.
 */
struct OverloadGolden
{
    long requests;
    long arrivals;
    long admitted;
    long shed;
    long batchedRequests;
    long scaleUps;
    long scaleDowns;
    long placementViolations;
    double makespanUs;
    double p50Us;
    double p99Us;
    /** FNV-1a over latencyUs then queueUs, in id order. */
    uint64_t latencyHash;
    /** FNV-1a over every trajectory sample's fields, in tick order. */
    uint64_t trajectoryHash;
    std::vector<ChipBits> chips;

    bool operator==(const OverloadGolden &) const = default;
};

OverloadGolden
overloadRecord(const stream::StreamReport &r)
{
    uint64_t traj = kFnvBasis;
    for (const auto &s : r.trajectory) {
        fold(traj, s.tUs);
        fold(traj, static_cast<uint64_t>(s.activeChips));
        fold(traj, s.windowP99Us);
        fold(traj, static_cast<uint64_t>(s.queueDepth));
        fold(traj, s.shedRate);
    }
    return {r.requests,        r.arrivals,
            r.admitted,        r.shed,
            r.batchedRequests, r.scaleUps,
            r.scaleDowns,      r.placementViolations,
            r.makespanUs,      r.p50Us,
            r.p99Us,           fnv1a(r.latencyUs, r.queueUs),
            traj,              chipBits(r)};
}

std::string
render(const OverloadGolden &g)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{%ld, %ld, %ld, %ld, %ld, %ld, %ld, %ld,\n"
                  " %.17g, %.17g, %.17g,\n"
                  " 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL,\n {",
                  g.requests, g.arrivals, g.admitted, g.shed,
                  g.batchedRequests, g.scaleUps, g.scaleDowns,
                  g.placementViolations, g.makespanUs, g.p50Us, g.p99Us,
                  g.latencyHash, g.trajectoryHash);
    return renderChips(buf, g.chips);
}

/** Stream @p scfg at 1, 2 and 4 host threads; each must match @p want. */
void
expectStreams(const OverloadGolden &want, stream::StreamConfig scfg)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    for (const int threads : {1, 2, 4}) {
        scfg.fleet.threads = threads;
        stream::EventLoop loop(cfg, cal, scfg);
        const OverloadGolden got =
            overloadRecord(loop.run(test::sharedCache()));
        EXPECT_TRUE(got == want)
            << "EventLoop, " << threads
            << " threads drifted; observed record:\n"
            << render(got);
    }
}

/**
 * ~3x overload of a 3-model stream on @p fcfg's chips, sampled
 * service (cheap) with exact latency vectors (every request's bits
 * pinned).  The queue grows to hundreds.
 */
stream::StreamConfig
overloadStream(FleetConfig fcfg)
{
    stream::StreamConfig s;
    s.fleet = std::move(fcfg);
    s.trace = test::serveTraceConfig(600, ArrivalKind::Poisson);
    s.trace.mix = {{"ResNet18", 1.0, 4000.0},
                   {"MobileNetV2", 1.0, 4000.0},
                   {"YOLOv5", 1.0, 4000.0}};
    s.trace.meanRatePerSec = 60000.0;
    s.serviceSamples = 4;
    return s;
}

/** @p s with same-model batching of up to 4. */
stream::StreamConfig
batched(stream::StreamConfig s)
{
    s.batching = true;
    s.maxBatch = 4;
    return s;
}

/** One chip, so every model change is a switch. */
FleetConfig
isaFleet(bool schedule)
{
    FleetConfig f;
    f.chips = 1;
    f.options = test::fastServeOptions();
    f.options.useIsa = true;
    f.options.isaSchedule = schedule;
    return f;
}

// --- Records ------------------------------------------------------

// Light enough load that the three policies pick the same order.
const Golden kBursty = {
    24, 2342.2854250817704, 34.635272982456172, 125.39838371929812,
    28505682760, 0x9ea9352f0aa68f84ULL, 0, 113, 66, 0, 0,
    0, 0,
    {{9, 212.11929824561381, 270.13683200000003, 5, 5},
     {8, 154.30175438596484, 270.13683200000003, 5, 5},
     {7, 146.73684210526307, 242.37875200000002, 5, 4}}};
const Golden kPoissonFcfs = {
    24, 1339.1784081533885, 37.762521486712423, 127.62372245238981,
    28505682760, 0x1b3c6feae22e5f7dULL, 0, 113, 66, 0, 0,
    0, 0,
    {{7, 123.61403508771912, 363.568128, 5, 6},
     {9, 186.17543859649115, 270.13683200000003, 5, 5},
     {8, 203.36842105263148, 148.94745600000002, 5, 3}}};
const Golden kDiurnalFcfs = {
    24, 1562.9645624365687, 34.92618393944872, 180.55147909858201,
    28505682760, 0x2f40e23d672e71e2ULL, 0, 113, 66, 0, 0,
    0, 0,
    {{10, 243.52982456140327, 270.13683200000003, 5, 5},
     {8, 153.61403508771923, 270.13683200000003, 5, 5},
     {6, 116.01403508771922, 242.37875200000002, 5, 4}}};
const Golden kResNet18Gang = {
    16, 2015.0596427676744, 132.32682273684213, 257.88986491518767,
    18589079840, 0xe7403b94532e6ce0ULL, 0, 0, 0, 9, 0,
    0, 0,
    {{8, 236.45705263157862, 331.54047999999995, 5, 7},
     {6, 186.41476491228045, 242.37875199999996, 5, 6},
     {5, 179.53757192982431, 214.62067199999996, 5, 5},
     {6, 222.70266666666635, 218.89024000000001, 5, 6}}};
const Golden kMixedSku = {
    16, 4922.0232668978051, 1361.3977064795308, 3023.9537106235302,
    453269599640, 0x5ef49f54cb16e355ULL, 0, 470, 953, 0, 0,
    0, 0,
    {{6, 3368.2994152046717, 782.73894399999995, 10, 2},
     {5, 2699.4198830409296, 782.73894399999995, 10, 2},
     {3, 210.35087719298227, 93.431296000000003, 5, 1},
     {2, 142.52631578947359, 93.431296000000003, 5, 1}}};
const Golden kMixedSkuGang = {
    16, 1925.8979147676744, 43.165094736842093, 127.47997554048226,
    18510436840, 0xbdb7abbd628c1eaaULL, 0, 0, 0, 9, 0,
    0, 0,
    {{10, 395.36304561403449, 32.027647999999999, 5, 2},
     {10, 395.36304561403449, 116.91980799999999, 5, 2},
     {3, 54.736842105263179, 27.75808, 5, 1},
     {2, 36.491228070175453, 27.75808, 5, 1}}};
const Golden kIsaOverlap = {
    16, 1262.8327443072474, 108.87544840683378, 214.54705596218503,
    18494743100, 0xe5aaff144e58f9caULL, 0, 81, 79, 0, 0,
    0.21052631578947367, 0,
    {{16, 341.10877192982406, 484.54697768421056, 5, 8}}};
const Golden kIsaSchedule = {
    16, 3200.1471517192995, 1020.8697459398768, 2057.7221243712652,
    18494743100, 0x4fe94dc48055968dULL, 0, 81, 79, 0, 0,
    0.21052631578947367, 6664.2779171929797,
    {{16, 2710.600174035088, 484.54697768421056, 5, 8}}};

// --- Overload records ---------------------------------------------

const OverloadGolden kOverloadFcfs = {
    600, 600, 600, 0, 0, 0, 0, 0,
    30626.557155929804, 9444.6483596319631, 19897.704337396186,
    0x4b88a4dbe2891a5eULL, 0x14650fb0739d0383ULL,
    {{183, 21932.70877192984, 8688.8483839999863, 5, 137},
     {216, 21741.550877192982, 8498.7141119999833, 5, 135},
     {201, 21275.88070175438, 9050.7806719999862, 5, 143}}};
const OverloadGolden kOverloadSjf = {
    600, 600, 600, 0, 0, 0, 0, 0,
    26643.862792570264, 270.3670618461374, 15951.872671739247,
    0x0fa9b780a0206af2ULL, 0x14650fb0739d0383ULL,
    {{198, 21589.2701754386, 4826.3603199999998, 5, 79},
     {207, 21652.821052631589, 4824.7244800000008, 5, 79},
     {195, 21708.04912280702, 4660.8435200000013, 5, 77}}};
const OverloadGolden kOverloadIrAware = {
    600, 600, 600, 0, 0, 0, 0, 0,
    21958.972512703138, 13253.089513282666, 18562.939001233466,
    0xdea529bfb4d0a604ULL, 0x14650fb0739d0383ULL,
    {{138, 21775.880701754359, 165.51679999999999, 5, 2},
     {317, 21421.75438596524, 342.22233600000004, 5, 6},
     {145, 21752.505263157844, 165.51679999999999, 5, 2}}};
const OverloadGolden kOverloadBatchFcfs = {
    600, 600, 600, 0, 443, 0, 0, 0,
    24525.550923228086, 6197.784924867452, 13869.927701744269,
    0xc2fd3912256efa36ULL, 0x14650fb0739d0383ULL,
    {{186, 22094.996491228078, 2425.5544320000008, 5, 39},
     {220, 21207.192982456134, 2982.397440000002, 5, 48},
     {194, 21647.950877192987, 2546.7438080000006, 5, 41}}};
const OverloadGolden kOverloadBatchIrAware = {
    600, 600, 600, 0, 442, 0, 0, 0,
    22040.432589473647, 13310.23078905711, 18749.339729219068,
    0x34ab9362e1bef7baULL, 0x14650fb0739d0383ULL,
    {{141, 21869.915789473649, 165.51679999999999, 5, 2},
     {148, 21500.456140350838, 286.70617600000003, 5, 4},
     {311, 21579.76842105297, 386.54975999999999, 5, 6}}};
const OverloadGolden kOverloadAutoscaled = {
    389, 600, 389, 211, 0, 4, 1, 0,
    20169.475131717893, 193.89683701103149, 3107.7320520542717,
    0xd964dfa7d0ff21e6ULL, 0x6389e2d6a82db797ULL,
    {{112, 11679.059649122803, 4849.4730239999999, 5, 78},
     {103, 11392.884210526308, 4725.6161280000006, 5, 72},
     {104, 11206.301754385959, 4268.6167040000028, 5, 65},
     {70, 10113.656140350877, 3238.2049280000019, 5, 50}}};
const OverloadGolden kOverloadMixedSku = {
    600, 600, 600, 0, 0, 0, 0, 0,
    102150.25941183594, 1967.5549659435342, 90337.459746887645,
    0xe918425d0a8004aeULL, 0x14650fb0739d0383ULL,
    {{153, 101357.52046783593, 782.73894399999995, 10, 2},
     {152, 100692.38830409326, 782.73894399999995, 10, 2},
     {148, 10483.108771929818, 93.431296000000003, 5, 1},
     {147, 10420.456140350871, 93.431296000000003, 5, 1}}};

} // namespace

TEST(ServeGolden, BurstyTraceEveryPolicy)
{
    const auto trace = test::serveTraceConfig(24, ArrivalKind::Bursty);
    for (const auto policy : allPolicies())
        expectServes(kBursty, fleetConfig(policy), trace);
}

TEST(ServeGolden, PoissonAndDiurnalFcfs)
{
    expectServes(kPoissonFcfs, fleetConfig(SchedPolicy::Fcfs),
                 test::serveTraceConfig(24, ArrivalKind::Poisson));
    expectServes(kDiurnalFcfs, fleetConfig(SchedPolicy::Fcfs),
                 test::serveTraceConfig(24, ArrivalKind::Diurnal));
}

TEST(ServeGolden, ResNet18Gang)
{
    FleetConfig f = fleetConfig(SchedPolicy::Fcfs, 4);
    f.gangs = {resnetGang()};
    expectServes(kResNet18Gang, f,
                 test::serveTraceConfig(16, ArrivalKind::Bursty));
}

TEST(ServeGolden, MixedSkuFleet)
{
    expectServes(kMixedSku, mixedFleet(),
                 mixedTrace({{"GPT2", 1.0, 4000.0},
                             {"ResNet18", 1.0, 4000.0}}));
}

TEST(ServeGolden, MixedSkuGangFleet)
{
    FleetConfig f = mixedFleet();
    f.gangs = {resnetGang()};
    expectServes(kMixedSkuGang, f,
                 mixedTrace({{"ResNet18", 1.0, 4000.0},
                             {"MobileNetV2", 1.0, 4000.0}}));
}

TEST(ServeGolden, IsaOverlap)
{
    expectServes(kIsaOverlap, isaFleet(false),
                 test::serveTraceConfig(16));
}

TEST(ServeGolden, IsaSchedule)
{
    expectServes(kIsaSchedule, isaFleet(true),
                 test::serveTraceConfig(16));
}

TEST(ServeGolden, OverloadEveryPolicy)
{
    expectStreams(kOverloadFcfs,
                  overloadStream(fleetConfig(SchedPolicy::Fcfs)));
    expectStreams(kOverloadSjf,
                  overloadStream(fleetConfig(SchedPolicy::Sjf)));
    expectStreams(kOverloadIrAware,
                  overloadStream(fleetConfig(SchedPolicy::IrAware)));
    // A deep queue is where the policies part ways.
    EXPECT_FALSE(kOverloadFcfs == kOverloadSjf);
    EXPECT_FALSE(kOverloadFcfs == kOverloadIrAware);
    EXPECT_FALSE(kOverloadSjf == kOverloadIrAware);
}

TEST(ServeGolden, OverloadBatching)
{
    expectStreams(kOverloadBatchFcfs,
                  batched(overloadStream(fleetConfig(SchedPolicy::Fcfs))));
    expectStreams(
        kOverloadBatchIrAware,
        batched(overloadStream(fleetConfig(SchedPolicy::IrAware))));
    EXPECT_GT(kOverloadBatchFcfs.batchedRequests, 0);
    EXPECT_GT(kOverloadBatchIrAware.batchedRequests, 0);
}

TEST(ServeGolden, OverloadBoundedQueueAutoscaler)
{
    // A diurnal swing from far below to far above what the 4-chip
    // fleet serves: the peak sheds and grows the pool, the trough
    // shrinks it.
    stream::StreamConfig s =
        overloadStream(fleetConfig(SchedPolicy::Sjf, 4));
    s.trace.arrivals = ArrivalKind::Diurnal;
    s.trace.meanRatePerSec = 30000.0;
    s.trace.diurnalAmplitude = 0.9;
    s.trace.diurnalPeriodUs = 20000.0;
    s.admission.maxQueueDepth = 24;
    s.controlTickUs = 200.0;
    s.autoscaler.enabled = true;
    s.autoscaler.targetP99Us = 1000.0;
    s.autoscaler.minChips = 1;
    s.autoscaler.cooldownUs = 400.0;
    s.autoscaler.window = 16;
    expectStreams(kOverloadAutoscaled, s);
    EXPECT_GT(kOverloadAutoscaled.shed, 0);
    EXPECT_GT(kOverloadAutoscaled.scaleUps, 0);
    EXPECT_GT(kOverloadAutoscaled.scaleDowns, 0);
}

TEST(ServeGolden, OverloadMixedSkuSkipsHeadsTinyChipsCannotHold)
{
    // GPT2 heads the queue most of the time, but only the big chips
    // can hold it: a tiny chip must pass over it to the ResNet18s.
    stream::StreamConfig s = overloadStream(mixedFleet());
    s.trace.mix = {{"GPT2", 1.0, 4000.0}, {"ResNet18", 1.0, 4000.0}};
    expectStreams(kOverloadMixedSku, s);
    EXPECT_EQ(kOverloadMixedSku.placementViolations, 0);
}
