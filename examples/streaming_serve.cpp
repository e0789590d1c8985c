/**
 * @file
 * Streaming-serving scenario: an AIM fleet serves a continuous
 * diurnal request stream through the discrete-event engine
 * (stream/EventLoop) instead of a materialized trace.  Arrivals come
 * lazily from a stream::TraceSource, admission control bounds the
 * queue during the daily peak, and the SLO autoscaler grows and
 * shrinks the active chip pool as the windowed p99 drifts against
 * its target.  Service times are sampled (a few chip executions per
 * model) and latencies land in a fixed log-bucket histogram, so
 * memory stays flat no matter how long the stream runs.
 *
 * Build & run:
 *   ./build/examples/streaming_serve [requests] [rate_rps]
 *               [--threads N]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "exec/ExecPool.hh"
#include "stream/EventLoop.hh"

int
main(int argc, char **argv)
{
    using namespace aim;

    const int threads = exec::ExecPool::stripThreadsFlag(argc, argv);
    long requests = 100'000;
    double rate_rps = 60'000.0;
    if (argc > 1)
        requests = std::atol(argv[1]);
    if (argc > 2)
        rate_rps = std::atof(argv[2]);

    pim::PimConfig chip;
    const auto cal = power::defaultCalibration();
    AimPipeline pipeline(chip, cal);
    serve::ModelCache cache(pipeline);

    stream::StreamConfig scfg;
    scfg.fleet.chips = 8;
    scfg.fleet.threads = threads;
    scfg.fleet.options.useLhr = false;
    scfg.fleet.options.workScale = 0.05;
    scfg.fleet.options.mapper = mapping::MapperKind::Sequential;
    scfg.trace.arrivals = serve::ArrivalKind::Diurnal;
    scfg.trace.meanRatePerSec = rate_rps;
    scfg.trace.requests = requests;
    scfg.trace.diurnalAmplitude = 0.9;
    // One full "day" spans the whole stream.
    scfg.trace.diurnalPeriodUs =
        static_cast<double>(requests) / rate_rps * 1e6;
    scfg.trace.mix = {{"ResNet18", 1.0, 4000.0},
                      {"MobileNetV2", 1.0, 4000.0}};
    scfg.serviceSamples = 4;
    scfg.histogramLatency = true;
    scfg.admission.maxQueueDepth = 512;
    scfg.controlTickUs = 2'000.0;
    scfg.autoscaler.enabled = true;
    scfg.autoscaler.targetP99Us = 1'500.0;
    scfg.autoscaler.minChips = 2;
    scfg.autoscaler.cooldownUs = 10'000.0;
    scfg.autoscaler.window = 512;
    scfg.maxBatch = 4;

    std::printf("streaming %ld diurnal requests at a mean %.0f "
                "req/s through an autoscaled %d-chip fleet...\n\n",
                requests, rate_rps, scfg.fleet.chips);
    stream::EventLoop loop(chip, cal, scfg);
    const auto rep = loop.run(cache);
    std::printf("%s\n", rep.render().c_str());

    // The day's control story in one line per phase: active chips
    // at the quietest and busiest control ticks.
    int lo = scfg.fleet.chips, hi = 0;
    for (const auto &s : rep.trajectory) {
        lo = std::min(lo, s.activeChips);
        hi = std::max(hi, s.activeChips);
    }
    std::printf("active chips ranged %d..%d across %zu control "
                "ticks; %ld scale-ups, %ld scale-downs\n",
                lo, hi, rep.trajectory.size(), rep.scaleUps,
                rep.scaleDowns);
    return 0;
}
