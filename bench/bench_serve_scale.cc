/**
 * @file
 * Streaming-serving scale benchmark: what the discrete-event engine
 * (stream/EventLoop) buys over the finite-trace replay, measured on
 * million-request streams.
 *
 *  (a) bounded memory -- a full diurnal period ("one day", scaled so
 *      the whole stream spans it) of >= 1M requests streams through
 *      the lazy TraceSource into the histogram digest with sampled
 *      service.  Peak RSS is measured against a 20x-shorter warm-up
 *      run of the identical configuration: the long stream must not
 *      grow the process by more than a fixed slack, i.e. memory is a
 *      function of queue depth and fleet size, never stream length.
 *  (b) fleet-size sweep -- the same arrival stream against 2/4/8
 *      active chips with a bounded queue: sustained req/s, shed
 *      rate and p99 against fleet size (throughput up, shed down).
 *  (c) overload shedding -- a stream far past the small fleet's
 *      capacity: admission keeps the queue at its bound and reports
 *      the shed rate instead of queueing (and aging) every arrival.
 *  (d) autoscaler trajectory -- a diurnal ramp under the SLO
 *      controller: the active pool grows up the ramp, shrinks after
 *      the peak, and the windowed p99 comes back under target.
 *  (e) dispatch cost vs queue depth -- the same unbounded 2-chip
 *      overload at N and 4N requests: the queue grows with the
 *      stream, yet host time per request must not (a dispatcher that
 *      scans or erases the queue per dispatch is quadratic overall).
 *
 * `--smoke` shrinks the streams and gates (a)-(e) with hard
 * PASS/FAIL thresholds; the binary exits non-zero on any failure
 * (the CI hook).  `--threads N` sets the host worker pool.
 *
 * Usage: bench_serve_scale [--smoke] [--threads N]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "BenchCommon.hh"
#include "exec/ExecPool.hh"
#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::bench;

namespace
{

/** Peak RSS of this process so far [MiB]. */
double
peakRssMib()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/** Fast-compiling two-model serving options (QAT skipped). */
AimOptions
scaleOptions()
{
    AimOptions o;
    o.useLhr = false;
    o.workScale = 0.05;
    o.mapper = mapping::MapperKind::Sequential;
    return o;
}

stream::StreamConfig
baseConfig(int chips, int threads, long requests, double rate_rps,
           serve::ArrivalKind arrivals)
{
    stream::StreamConfig s;
    s.fleet.chips = chips;
    s.fleet.threads = threads;
    s.fleet.seed = 5;
    s.fleet.options = scaleOptions();
    s.trace.arrivals = arrivals;
    s.trace.meanRatePerSec = rate_rps;
    s.trace.requests = requests;
    s.trace.seed = 1209;
    s.trace.mix = {{"ResNet18", 1.0, 4000.0},
                   {"MobileNetV2", 1.0, 4000.0}};
    // The streaming modes of the engine: sampled service + O(1)
    // histogram digest.  Exact per-request vectors would defeat the
    // bounded-memory claim this bench exists to measure.
    s.serviceSamples = 4;
    s.histogramLatency = true;
    return s;
}

stream::StreamReport
run(const stream::StreamConfig &scfg, serve::ModelCache &cache)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    stream::EventLoop loop(cfg, cal, scfg);
    return loop.run(cache);
}

bool
gate(const char *what, bool ok)
{
    std::printf("smoke gate: %s %s\n", what, ok ? "PASS" : "FAIL");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const int threads =
        exec::ExecPool::stripThreadsFlag(argc, argv, 0);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    banner("serve-scale",
           "streamed serving: bounded memory, fleet sweep, "
           "shedding, autoscaler, dispatch cost");

    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    AimPipeline pipeline(cfg, cal);
    serve::ModelCache cache(pipeline);
    bool ok = true;

    // ---- (a) day-long diurnal stream, bounded memory -------------
    // The sustained rate loads a 4-chip fleet well below saturation
    // so the queue stays shallow and every arrival completes; the
    // diurnal period is stretched to the stream's expected span (the
    // scaled "day").
    const long day_requests = smoke ? 200'000 : 1'000'000;
    const double day_rate = 10'000.0;
    stream::StreamConfig day = baseConfig(
        4, threads, day_requests, day_rate,
        serve::ArrivalKind::Diurnal);
    day.trace.diurnalPeriodUs =
        static_cast<double>(day_requests) / day_rate * 1e6;
    day.admission.maxQueueDepth = 512;

    // Warm-up at a 20x shorter horizon: same config, same fleet,
    // same caches touched.  Whatever RSS the long run adds on top is
    // by construction stream-length-dependent memory.
    stream::StreamConfig warmup = day;
    warmup.maxRequests = day_requests / 20;
    run(warmup, cache);
    const double rss_before = peakRssMib();

    const auto t0 = std::chrono::steady_clock::now();
    const auto day_rep = run(day, cache);
    const double day_host_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    const double rss_after = peakRssMib();

    util::Table daytab("day-long diurnal stream (sampled service, "
                       "histogram digest)");
    daytab.setHeader({"requests", "sim s", "host s", "host req/s",
                      "sim req/s", "p99 us", "shed %",
                      "peak RSS MiB"});
    daytab.addRow(
        {std::to_string(day_rep.requests),
         util::Table::fmt(day_rep.makespanUs / 1e6, 1),
         util::Table::fmt(day_host_s, 1),
         util::Table::fmt(day_rep.requests / day_host_s, 0),
         util::Table::fmt(day_rep.throughputRps(), 0),
         util::Table::fmt(day_rep.p99Us, 1),
         util::Table::fmt(100.0 * day_rep.shedRate(), 2),
         util::Table::fmt(rss_after, 1)});
    daytab.print();
    const double rss_growth = rss_after - rss_before;
    std::printf("peak RSS growth over the 20x-shorter warm-up: "
                "%.1f MiB\n\n",
                rss_growth);

    if (smoke) {
        ok &= gate("day stream completed every admitted request",
                   day_rep.requests == day_rep.admitted &&
                       day_rep.requests > 0);
        // Stream-length-independent memory: 19/20 of the stream must
        // not cost more than a fixed slack (64 MiB covers allocator
        // noise; O(n) digests would add hundreds).
        ok &= gate("peak RSS independent of stream length "
                   "(growth < 64 MiB)",
                   rss_growth < 64.0);
        ok &= gate("host-side engine rate >= 20k req/s",
                   day_rep.requests / day_host_s >= 20'000.0);
    }

    // ---- (b) sustained throughput vs fleet size ------------------
    // One overloaded arrival stream, three fleet sizes: small fleets
    // shed, big fleets absorb.  Sustained req/s is completions over
    // the stream's span.
    const long sweep_requests = smoke ? 40'000 : 200'000;
    const double sweep_rate = 60'000.0;
    util::Table sweep("sustained throughput vs fleet size "
                      "(offered 60k req/s, queue bound 256)");
    sweep.setHeader({"chips", "sustained req/s", "shed %", "p99 us",
                     "busy % (chip 0)"});
    double rps2 = 0.0, rps8 = 0.0, shed2 = 0.0, shed8 = 0.0;
    for (const int chips : {2, 4, 8}) {
        stream::StreamConfig scfg = baseConfig(
            chips, threads, sweep_requests, sweep_rate,
            serve::ArrivalKind::Poisson);
        scfg.admission.maxQueueDepth = 256;
        const auto rep = run(scfg, cache);
        sweep.addRow(
            {std::to_string(chips),
             util::Table::fmt(rep.throughputRps(), 0),
             util::Table::fmt(100.0 * rep.shedRate(), 1),
             util::Table::fmt(rep.p99Us, 1),
             util::Table::pct(
                 rep.chips[0].utilization(rep.makespanUs))});
        if (chips == 2) {
            rps2 = rep.throughputRps();
            shed2 = rep.shedRate();
        }
        if (chips == 8) {
            rps8 = rep.throughputRps();
            shed8 = rep.shedRate();
        }
    }
    sweep.print();
    std::printf("\n");
    if (smoke) {
        ok &= gate("throughput grows with the fleet (8 > 2 chips)",
                   rps8 > rps2);
        ok &= gate("shed rate falls with the fleet (8 < 2 chips)",
                   shed8 < shed2);
    }

    // ---- (c) overload shedding on a small fleet ------------------
    const long overload_requests = smoke ? 20'000 : 100'000;
    stream::StreamConfig overload = baseConfig(
        2, threads, overload_requests, 60'000.0,
        serve::ArrivalKind::Poisson);
    overload.admission.maxQueueDepth = 64;
    overload.controlTickUs = 1'000.0;
    const auto shed_rep = run(overload, cache);
    long max_queue = 0;
    for (const auto &s : shed_rep.trajectory)
        max_queue = std::max(max_queue, s.queueDepth);
    std::printf("overload (2 chips, offered 60k req/s, queue bound "
                "64): shed %.1f%%, served %.0f req/s, max queued "
                "%ld\n\n",
                100.0 * shed_rep.shedRate(),
                shed_rep.throughputRps(), max_queue);
    if (smoke) {
        ok &= gate("overload sheds (> 0) but below the 90% ceiling",
                   shed_rep.shedRate() > 0.0 &&
                       shed_rep.shedRate() <= 0.90);
        ok &= gate("admission bounds the queue at its depth",
                   max_queue <= overload.admission.maxQueueDepth);
    }

    // ---- (d) autoscaler on a diurnal ramp ------------------------
    const long ramp_requests = smoke ? 40'000 : 200'000;
    stream::StreamConfig ramp = baseConfig(
        8, threads, ramp_requests, 20'000.0,
        serve::ArrivalKind::Diurnal);
    ramp.trace.diurnalAmplitude = 0.9;
    ramp.trace.diurnalPeriodUs =
        static_cast<double>(ramp_requests) / 20'000.0 * 1e6;
    ramp.admission.maxQueueDepth = 512;
    ramp.controlTickUs = 2'000.0;
    ramp.autoscaler.enabled = true;
    ramp.autoscaler.targetP99Us = 1'500.0;
    ramp.autoscaler.minChips = 2;
    ramp.autoscaler.cooldownUs = 10'000.0;
    ramp.autoscaler.window = 512;
    const auto ramp_rep = run(ramp, cache);

    util::Table traj("autoscaler trajectory on the diurnal ramp "
                     "(every 16th control tick)");
    traj.setHeader(
        {"t ms", "active chips", "window p99 us", "queued"});
    for (size_t i = 0; i < ramp_rep.trajectory.size(); i += 16) {
        const auto &s = ramp_rep.trajectory[i];
        traj.addRow({util::Table::fmt(s.tUs / 1e3, 1),
                     std::to_string(s.activeChips),
                     util::Table::fmt(s.windowP99Us, 0),
                     std::to_string(s.queueDepth)});
    }
    traj.print();
    long ticks_in_slo = 0, ticks_measured = 0;
    int peak_chips = 0;
    for (const auto &s : ramp_rep.trajectory) {
        peak_chips = std::max(peak_chips, s.activeChips);
        if (s.windowP99Us >= 0.0) {
            ++ticks_measured;
            ticks_in_slo +=
                s.windowP99Us <= ramp.autoscaler.targetP99Us;
        }
    }
    const double in_slo_frac =
        ticks_measured > 0
            ? static_cast<double>(ticks_in_slo) / ticks_measured
            : 0.0;
    std::printf("scale-ups %ld, scale-downs %ld, peak active chips "
                "%d, ticks with windowed p99 in SLO: %.0f%%\n",
                ramp_rep.scaleUps, ramp_rep.scaleDowns, peak_chips,
                100.0 * in_slo_frac);
    if (smoke) {
        ok &= gate("autoscaler grows up the ramp and shrinks after",
                   ramp_rep.scaleUps > 0 && ramp_rep.scaleDowns > 0);
        ok &= gate("windowed p99 within SLO for >= 70% of ticks",
                   in_slo_frac >= 0.70);
    }

    // ---- (e) dispatch cost vs queue depth -----------------------
    // 60k req/s offered to ~40k req/s of chips with unbounded
    // admission: the backlog grows linearly, to thousands at N and
    // four times that at 4N.
    const long cliff_requests = smoke ? 10'000 : 40'000;
    util::Table cliff("host cost per request under unbounded overload "
                      "(2 chips, offered 60k req/s)");
    cliff.setHeader({"requests", "host ms", "host us/request",
                     "p99 us"});
    double us_per_request[2] = {0.0, 0.0};
    bool drained = true;
    for (int k = 0; k < 2; ++k) {
        const long n = k == 0 ? cliff_requests : 4 * cliff_requests;
        const stream::StreamConfig scfg = baseConfig(
            2, threads, n, 60'000.0, serve::ArrivalKind::Poisson);
        const auto tc = std::chrono::steady_clock::now();
        const auto rep = run(scfg, cache);
        const double host_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - tc)
                .count();
        drained &= rep.requests == n;
        us_per_request[k] = host_s * 1e6 / static_cast<double>(n);
        cliff.addRow({std::to_string(n), util::Table::fmt(host_s * 1e3, 1),
                      util::Table::fmt(us_per_request[k], 2),
                      util::Table::fmt(rep.p99Us, 0)});
    }
    cliff.print();
    const double cliff_ratio = us_per_request[1] / us_per_request[0];
    std::printf("host us/request at 4N over N: %.2f\n", cliff_ratio);
    if (smoke) {
        ok &= gate("unbounded overload drains every request", drained);
        ok &= gate("host us/request at 4N <= 1.5x that at N",
                   cliff_ratio <= 1.5);
    }

    if (smoke)
        std::printf("\nsmoke verdict: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
