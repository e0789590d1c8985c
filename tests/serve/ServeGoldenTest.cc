/**
 * @file
 * Report-bit goldens of the serving engine.
 *
 * Each record pins one serving configuration's report as it stood
 * when the finite-trace replay was still a separate engine from the
 * streaming loop: makespan, p50, p99 and total MACs at %.17g, an
 * FNV-1a hash over the per-request latency and queueing vectors, the
 * per-chip usage and the counters.  Every configuration is served
 * through both entries of stream::EventLoop -- the finite trace at 1
 * and 4 host threads (BurstyTraceEveryPolicy adds 8 and 0, the
 * hardware concurrency), and the lazy TraceSource stream of the same
 * requests at 2 threads -- and every serve must reproduce the record
 * bit for bit.  Cache counters are left out: the suites share one
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
#include <initializer_list>
#include <string>
#include <vector>

#include "TestUtil.hh"

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

/** Per-chip usage bits of a report. */
std::vector<ChipBits>
chipBits(const stream::StreamReport &r)
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

/** The golden fields of a report. */
Golden
record(const stream::StreamReport &r)
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
 * Serve @p tcfg on @p fcfg as a finite trace at each of
 * @p finiteThreads host threads and as a lazy stream at 2 threads;
 * every serve must match @p want.
 */
void
expectServes(const Golden &want, FleetConfig fcfg,
             const TraceConfig &tcfg,
             std::initializer_list<int> finiteThreads = {1, 4})
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const auto trace = generateTrace(tcfg);
    for (const int threads : finiteThreads) {
        fcfg.threads = threads;
        expectGolden(want, record(test::serveFleet(fcfg, trace)),
                     "EventLoop finite trace, " +
                         std::to_string(threads) + " threads");
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
    24, 2342.2854250817704, 34.635272982456172, 125.99269950877192,
    28505682760, 0xd11aa85f0b93769bULL, 0, 119, 99, 0, 0,
    0, 0,
    {{9, 214.21052631578928, 270.13683200000003, 5, 5},
     {8, 155.5508771929822, 270.13683200000003, 5, 5},
     {7, 149.72631578947352, 242.37875200000002, 5, 4}}};
const Golden kPoissonFcfs = {
    24, 1339.1784081533885, 37.846732013028181, 128.50989789098628,
    28505682760, 0xf155bac289596bbbULL, 0, 119, 99, 0, 0,
    0, 0,
    {{7, 124.5543859649121, 363.568128, 5, 6},
     {9, 187.49473684210506, 270.13683200000003, 5, 5},
     {8, 207.43859649122786, 148.94745600000002, 5, 3}}};
const Golden kDiurnalFcfs = {
    24, 1562.9645624365687, 34.92618393944872, 181.37400541437145,
    28505682760, 0x69ba96f1175167f4ULL, 0, 119, 99, 0, 0,
    0, 0,
    {{10, 246.77192982456111, 270.13683200000003, 5, 5},
     {8, 156.08421052631562, 270.13683200000003, 5, 5},
     {6, 116.6315789473683, 242.37875200000002, 5, 4}}};
const Golden kResNet18Gang = {
    16, 2015.0596427676744, 132.32682273684213, 257.88986491518767,
    18589079840, 0xe7403b94532e6ce0ULL, 0, 0, 0, 9, 0,
    0, 0,
    {{8, 236.45705263157862, 331.54047999999995, 5, 7},
     {6, 186.41476491228045, 242.37875199999996, 5, 6},
     {5, 179.53757192982431, 214.62067199999996, 5, 5},
     {6, 222.70266666666635, 218.89024000000001, 5, 6}}};
const Golden kMixedSku = {
    16, 4920.0934423364015, 1360.8573556023375, 3022.0407281673897,
    453269599640, 0x64224db55a305b73ULL, 0, 459, 926, 0, 0,
    0, 0,
    {{6, 3365.2187134502851, 782.73894399999995, 10, 2},
     {5, 2700.0374269005788, 782.73894399999995, 10, 2},
     {3, 210.13333333333316, 93.431296000000003, 5, 1},
     {2, 141.39649122807006, 93.431296000000003, 5, 1}}};
const Golden kMixedSkuGang = {
    16, 1925.8979147676744, 43.165094736842093, 127.47997554048226,
    18510436840, 0xbdb7abbd628c1eaaULL, 0, 0, 0, 9, 0,
    0, 0,
    {{10, 395.36304561403449, 32.027647999999999, 5, 2},
     {10, 395.36304561403449, 116.91980799999999, 5, 2},
     {3, 54.736842105263179, 27.75808, 5, 1},
     {2, 36.491228070175453, 27.75808, 5, 1}}};
const Golden kIsaOverlap = {
    16, 1258.8327443072476, 107.32457121385141, 211.17231912007981,
    18494743100, 0x4ba4e91fcc16c16dULL, 0, 75, 63, 0, 0,
    0.21052631578947367, 0,
    {{16, 337.62807017543832, 484.54697768421056, 5, 8}}};
const Golden kIsaSchedule = {
    16, 3200.1471517192995, 1020.8697459398768, 2057.7221243712652,
    18494743100, 0x4fe94dc48055968dULL, 0, 75, 63, 0, 0,
    0.21052631578947367, 6660.7972154385952,
    {{16, 2710.600174035088, 484.54697768421056, 5, 8}}};

// --- Overload records ---------------------------------------------

const OverloadGolden kOverloadFcfs = {
    600, 600, 600, 0, 0, 0, 0, 0,
    30551.811963650576, 9423.4636971758337, 19826.072522732356,
    0x4d05cd379c7e2c53ULL, 0x14650fb0739d0383ULL,
    {{191, 21384.940350877219, 8909.8813439999867, 5, 141},
     {208, 20971.361403508814, 9209.8851839999879, 5, 144},
     {201, 22700.336842105287, 7810.5246719999841, 5, 126}}};
const OverloadGolden kOverloadSjf = {
    600, 600, 600, 0, 0, 0, 0, 0,
    26709.014281124255, 284.94302366909005, 16074.271744500087,
    0x5459f88b62be589aULL, 0x14650fb0739d0383ULL,
    {{208, 21513.642105263167, 5067.1032319999995, 5, 83},
     {187, 21424.743859649123, 4847.7061120000008, 5, 79},
     {205, 22118.252631578958, 4549.8112000000028, 5, 73}}};
const OverloadGolden kOverloadIrAware = {
    600, 600, 600, 0, 0, 0, 0, 0,
    22004.790056562899, 13084.897973562074, 18611.97112780844,
    0x326a1bb758d1cf5dULL, 0x14650fb0739d0383ULL,
    {{213, 21790.350877193203, 193.27488, 5, 3},
     {241, 21467.964912280921, 342.22233600000004, 5, 6},
     {146, 21798.322807017605, 165.51679999999999, 5, 2}}};
const OverloadGolden kOverloadBatchFcfs = {
    600, 600, 600, 0, 443, 0, 0, 0,
    24848.810041973815, 6486.2248142734297, 14319.796296360191,
    0x6ab8560b1a8e4493ULL, 0x14650fb0739d0383ULL,
    {{166, 22270.456140350911, 2535.5550720000006, 5, 39},
     {232, 21062.645614035129, 3619.847168000003, 5, 56},
     {202, 21723.536842105288, 2812.1041920000011, 5, 45}}};
const OverloadGolden kOverloadBatchIrAware = {
    600, 600, 600, 0, 442, 0, 0, 0,
    22083.218554386021, 13352.606227653643, 18795.774816938374,
    0xc87879fbc40b9419ULL, 0x14650fb0739d0383ULL,
    {{141, 21912.701754386024, 165.51679999999999, 5, 2},
     {148, 21535.150877193031, 286.70617600000003, 5, 4},
     {311, 21608.785964912684, 386.54975999999999, 5, 6}}};
const OverloadGolden kOverloadAutoscaled = {
    382, 600, 382, 218, 0, 4, 1, 0,
    20171.774297522337, 240.33987556065858, 3151.8442406581294,
    0x19137cf8bb562bd6ULL, 0x010af84ab127fc3dULL,
    {{114, 11476.807017543857, 5161.2697599999983, 5, 79},
     {96, 11826.898245614038, 4358.303232000002, 5, 69},
     {87, 11837.71228070176, 3567.6026880000027, 5, 54},
     {85, 9403.0456140350852, 4045.9479040000033, 5, 61}}};
const OverloadGolden kOverloadMixedSku = {
    600, 600, 600, 0, 0, 0, 0, 0,
    102182.23134166074, 1967.5163694523058, 90369.898904782618,
    0xbc28b7d22f7fa2afULL, 0x14650fb0739d0383ULL,
    {{153, 101389.49239766074, 782.73894399999995, 10, 2},
     {152, 100718.82339181268, 782.73894399999995, 10, 2},
     {148, 10403.817543859645, 93.431296000000003, 5, 1},
     {147, 10316.042105263154, 93.431296000000003, 5, 1}}};

} // namespace

TEST(ServeGolden, BurstyTraceEveryPolicy)
{
    const auto trace = test::serveTraceConfig(24, ArrivalKind::Bursty);
    for (const auto policy : allPolicies())
        expectServes(kBursty, fleetConfig(policy), trace, {1, 4, 8, 0});
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
