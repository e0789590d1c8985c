/**
 * @file
 * Serving-layer benchmark: quantifies what the compiled-model cache
 * and the dispatch policies buy on a 3-chip fleet.
 *
 *  (a) cache amortization -- the offline flow (QAT/LHR + WDS +
 *      tiling) costs seconds per model while execution costs
 *      milliseconds; recompiling per request caps throughput at
 *      fractions of a request per second.  A sample of requests is
 *      timed cold (compile every request) vs warm (cache), and the
 *      speedup is reported (expected well above 5x).
 *  (b) policy sweep -- FCFS / SJF / IR-aware on the identical trace
 *      and cache, comparing latency percentiles, SLO violations,
 *      model switches and effective TOPS.
 *  (c) parallel scaling -- the same warm serve at 1 host thread vs
 *      --threads N (default 8).  Chip executions are pure functions
 *      of (artifact, seed), so the N-thread StreamReport is verified
 *      bit-identical to serial while host wall clock drops; the
 *      headline is the speedup (threshold 3x at 8 threads on a
 *      multi-core runner).
 *  (d) ISA reload overlap + scheduling -- a two-model trace on one
 *      chip, flat round-level execution vs the instruction-level
 *      ISA engine vs the ISA engine with the cost-modelled list
 *      scheduler (isaSchedule).  The physics is bit-identical on
 *      all three; the ISA path hides reload time under the
 *      predecessor's trailing compute on every model switch, and
 *      the scheduler software-pipelines the next round's
 *      loads/retunes into trailing MAC windows, shrinking every
 *      request's modelled makespan.  Gated: overlap saved > 0,
 *      reload time strictly below the flat path's, scheduler
 *      savings > 0 with identical MAC/IRFailure accounting.
 *
 * Usage: bench_serve_throughput [--threads N] [--smoke]
 *   --smoke  CI-bounded run: small trace, sections (b) and (d) only
 */

#include <chrono>
#include <cstring>
#include <thread>

#include "BenchCommon.hh"
#include "exec/ExecPool.hh"
#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::bench;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    // Scaling section default is 8 threads; an explicit --threads 1
    // really does compare serial against serial.
    const int threads =
        exec::ExecPool::stripThreadsFlag(argc, argv, 8);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
    banner("serve-throughput",
           smoke ? "policy sweep + ISA overlap (smoke)"
                 : "cache amortization + policy sweep + parallel "
                   "scaling + ISA overlap");

    pim::PimConfig chip;
    const auto cal = power::defaultCalibration();
    AimPipeline pipeline(chip, cal);

    AimOptions opts;
    opts.workScale = 0.02;
    if (smoke)
        opts.useLhr = false; // skip QAT: CI-bounded compiles

    stream::StreamConfig scfg;
    serve::TraceConfig &tcfg = scfg.trace;
    tcfg.arrivals = serve::ArrivalKind::Poisson;
    tcfg.meanRatePerSec = 6000.0;
    tcfg.requests = smoke ? 12 : 24;
    tcfg.seed = 1209;
    tcfg.mix = {{"ResNet18", 0.5, 2000.0},
                {"GPT2", 0.25, 8000.0},
                {"ViT", 0.25, 5000.0}};

    serve::ModelCache cache(pipeline);
    serve::FleetConfig &fcfg = scfg.fleet;
    fcfg.chips = 3;
    fcfg.options = opts;
    fcfg.policy = serve::SchedPolicy::Fcfs;

    if (!smoke) {
        // ---- (a) cold: compile-per-request on a trace sample ------
        const long cold_sample = 6;
        const auto trace = serve::generateTrace(tcfg);
        serve::ModelCache cold_cache(pipeline);
        const auto cold_start = Clock::now();
        for (long i = 0; i < cold_sample; ++i) {
            cold_cache.clear(); // every request recompiles
            const auto artifact =
                cold_cache.get(trace[i].model, opts);
            pipeline.execute(*artifact,
                             static_cast<uint64_t>(i) + 1);
        }
        const double cold_s = secondsSince(cold_start);
        const double cold_rps = cold_sample / cold_s;

        // ---- warm: cache shared across the whole trace ------------
        const auto warm_start = Clock::now();
        stream::EventLoop(chip, cal, scfg).run(cache);
        const double warm_s = secondsSince(warm_start);
        const double warm_rps = trace.size() / warm_s;

        util::Table amortization("compiled-model cache amortization "
                                 "(host wall clock)");
        amortization.setHeader({"path", "requests", "compiles",
                                "time s", "req/s"});
        amortization.addRow({"cold (compile/request)",
                             std::to_string(cold_sample),
                             std::to_string(cold_sample),
                             util::Table::fmt(cold_s, 1),
                             util::Table::fmt(cold_rps, 2)});
        amortization.addRow({"warm (cached)",
                             std::to_string(trace.size()),
                             std::to_string(cache.misses()),
                             util::Table::fmt(warm_s, 1),
                             util::Table::fmt(warm_rps, 2)});
        amortization.print();
        std::printf("cache speedup: %.1fx (threshold 5x) %s\n\n",
                    warm_rps / cold_rps,
                    warm_rps / cold_rps >= 5.0 ? "PASS" : "FAIL");
    }

    // ---- (b) policy sweep on the identical trace + cache ----------
    // The sweep runs on the Mesh backend: policies shift which
    // requests share a chip back-to-back, and the per-window PDN
    // re-solve makes the droop see those placement differences.
    fcfg.options.irBackend = power::IrBackendKind::Mesh;
    util::Table sweep("dispatch policies, 3-chip fleet, "
                      "mesh droop, simulated time");
    sweep.setHeader({"policy", "p50 us", "p95 us", "p99 us",
                     "SLO viol", "switches", "eff TOPS"});
    for (const auto policy : serve::allPolicies()) {
        fcfg.policy = policy;
        const auto rep = stream::EventLoop(chip, cal, scfg).run(cache);
        sweep.addRow({policyName(policy),
                      util::Table::fmt(rep.p50Us, 1),
                      util::Table::fmt(rep.p95Us, 1),
                      util::Table::fmt(rep.p99Us, 1),
                      std::to_string(rep.sloViolations),
                      std::to_string(rep.totalModelSwitches()),
                      util::Table::fmt(rep.aggregateTops(), 1)});
    }
    if (!smoke) {
        // One di/dt row for scale: the Transient backend's RC state
        // makes it the most expensive droop model, so it stays out
        // of the CI-bounded smoke run.
        fcfg.policy = serve::SchedPolicy::Fcfs;
        fcfg.options.irBackend = power::IrBackendKind::Transient;
        const auto rep = stream::EventLoop(chip, cal, scfg).run(cache);
        sweep.addRow({"fcfs (transient)",
                      util::Table::fmt(rep.p50Us, 1),
                      util::Table::fmt(rep.p95Us, 1),
                      util::Table::fmt(rep.p99Us, 1),
                      std::to_string(rep.sloViolations),
                      std::to_string(rep.totalModelSwitches()),
                      util::Table::fmt(rep.aggregateTops(), 1)});
    }
    sweep.print();
    fcfg.options.irBackend = opts.irBackend;

    if (!smoke) {
        // ---- (c) parallel scaling: serial vs --threads N ----------
        // A warm cache: (a) compiled every model of the mix, so
        // both runs render the same cache counters.
        stream::StreamConfig scale = scfg;
        scale.trace.requests = 48;
        scale.trace.seed = 3307;
        const auto scale_requests =
            static_cast<double>(scale.trace.requests);

        scale.fleet.policy = serve::SchedPolicy::Fcfs;
        scale.fleet.threads = 1;
        const auto serial_start = Clock::now();
        const auto serial_rep =
            stream::EventLoop(chip, cal, scale).run(cache);
        const double serial_s = secondsSince(serial_start);

        scale.fleet.threads = threads;
        const auto parallel_start = Clock::now();
        const auto parallel_rep =
            stream::EventLoop(chip, cal, scale).run(cache);
        const double parallel_s = secondsSince(parallel_start);

        bool identical =
            serial_rep.render() == parallel_rep.render() &&
            serial_rep.latencyUs == parallel_rep.latencyUs &&
            serial_rep.queueUs == parallel_rep.queueUs &&
            serial_rep.totalMacs == parallel_rep.totalMacs &&
            serial_rep.irFailures == parallel_rep.irFailures;

        const double speedup = serial_s / parallel_s;
        const unsigned cores = std::thread::hardware_concurrency();
        util::Table scaling("parallel fleet scaling "
                            "(host wall clock, 48-request serve)");
        scaling.setHeader(
            {"threads", "time s", "req/s", "speedup", "identical"});
        scaling.addRow({"1", util::Table::fmt(serial_s, 2),
                        util::Table::fmt(
                            scale_requests / serial_s, 2),
                        "1.00", "-"});
        scaling.addRow({std::to_string(threads),
                        util::Table::fmt(parallel_s, 2),
                        util::Table::fmt(
                            scale_requests / parallel_s, 2),
                        util::Table::fmt(speedup, 2),
                        identical ? "yes" : "NO"});
        scaling.print();
        if (!identical) {
            std::printf(
                "FAIL: %d-thread report differs from serial\n",
                threads);
            return 1;
        }
        if (cores >= 4) {
            std::printf("parallel speedup: %.2fx at %d threads on "
                        "%u cores (threshold 3x) %s\n",
                        speedup, threads, cores,
                        speedup >= 3.0 ? "PASS" : "FAIL");
        } else {
            std::printf("parallel speedup: %.2fx at %d threads "
                        "(only %u host core%s: scaling not "
                        "measurable here; reports verified "
                        "identical)\n",
                        speedup, threads, cores,
                        cores == 1 ? "" : "s");
        }
        std::printf("\n");
    }

    // ---- (d) ISA reload overlap on model switches -----------------
    // Two models alternating on one chip: every model change pays a
    // weight reload.  The ISA engine banks each request's tail-idle
    // budget (macros the model no longer touches near the end) and
    // the dispatcher hides that much of the next reload under the
    // trailing compute.  Physics is bit-identical either way.
    stream::StreamConfig icfg;
    icfg.trace.arrivals = serve::ArrivalKind::Poisson;
    icfg.trace.meanRatePerSec = 6000.0;
    icfg.trace.requests = smoke ? 12 : 24;
    icfg.trace.seed = 4421;
    icfg.trace.mix = {{"ResNet18", 1.0, 4000.0},
                      {"MobileNetV2", 1.0, 4000.0}};
    icfg.fleet.chips = 1;
    icfg.fleet.options = opts;
    const auto flat_rep = stream::EventLoop(chip, cal, icfg).run(cache);
    icfg.fleet.options.useIsa = true;
    const auto isa_rep = stream::EventLoop(chip, cal, icfg).run(cache);
    icfg.fleet.options.isaSchedule = true;
    const auto sched_rep = stream::EventLoop(chip, cal, icfg).run(cache);

    const double flat_reload = flat_rep.chips[0].reloadUs;
    const double isa_reload = isa_rep.chips[0].reloadUs;
    util::Table overlap("ISA reload/compute overlap "
                        "(1 chip, two-model switch trace)");
    overlap.setHeader({"path", "switches", "reload us", "saved us",
                       "makespan us", "p99 us"});
    overlap.addRow({"flat rounds",
                    std::to_string(flat_rep.totalModelSwitches()),
                    util::Table::fmt(flat_reload, 1), "0.0",
                    util::Table::fmt(flat_rep.makespanUs, 1),
                    util::Table::fmt(flat_rep.p99Us, 1)});
    overlap.addRow({"isa engine",
                    std::to_string(isa_rep.totalModelSwitches()),
                    util::Table::fmt(isa_reload, 1),
                    util::Table::fmt(isa_rep.reloadOverlapSavedUs,
                                     1),
                    util::Table::fmt(isa_rep.makespanUs, 1),
                    util::Table::fmt(isa_rep.p99Us, 1)});
    overlap.addRow({"isa scheduled",
                    std::to_string(sched_rep.totalModelSwitches()),
                    util::Table::fmt(sched_rep.chips[0].reloadUs,
                                     1),
                    util::Table::fmt(
                        sched_rep.reloadOverlapSavedUs +
                            sched_rep.scheduleSavedUs,
                        1),
                    util::Table::fmt(sched_rep.makespanUs, 1),
                    util::Table::fmt(sched_rep.p99Us, 1)});
    overlap.print();
    const bool overlap_pass =
        isa_rep.reloadOverlapSavedUs > 0.0 &&
        isa_reload < flat_reload &&
        isa_rep.totalMacs == flat_rep.totalMacs;
    std::printf("isa overlap: %.1f us reload hidden across %ld "
                "switches %s\n",
                isa_rep.reloadOverlapSavedUs,
                isa_rep.totalModelSwitches(),
                overlap_pass ? "PASS" : "FAIL");
    if (!overlap_pass)
        return 1;
    // Scheduler gate: the list scheduler must shrink the modelled
    // request makespans (saved > 0) while leaving the physics
    // untouched (same MACs, same droop failures as the flat path).
    const bool sched_pass =
        sched_rep.scheduleSavedUs > 0.0 &&
        sched_rep.totalMacs == flat_rep.totalMacs &&
        sched_rep.irFailures == flat_rep.irFailures;
    std::printf("isa scheduler: %.1f us makespan saved across %ld "
                "requests %s\n",
                sched_rep.scheduleSavedUs, sched_rep.requests,
                sched_pass ? "PASS" : "FAIL");
    if (!sched_pass)
        return 1;
    return 0;
}
