/**
 * @file
 * Inference-serving scenario: a 3-chip AIM fleet serves a mixed
 * ResNet18 + GPT-2 + ViT Poisson trace.  The offline flow (LHR
 * quantization, WDS, compilation) runs once per model through the
 * compiled-model cache; every request then executes on the chip model
 * with its own noise seed.  All three dispatch policies are compared
 * on the same trace -- the IR-aware policy keeps chips on their
 * resident model and safe Rtog level, trading a little queueing
 * fairness for far fewer weight reloads and booster retunes.
 *
 * Build & run:
 *   ./build/examples/serving_sim [requests] [rate_rps] [arrivals]
 *               [--threads N]
 * with arrivals one of poisson (default), bursty, diurnal.  N host
 * threads execute chip runs concurrently (N <= 0 = all cores); the
 * reports are bit-identical at any thread count.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exec/ExecPool.hh"
#include "stream/EventLoop.hh"

int
main(int argc, char **argv)
{
    using namespace aim;

    const int threads = exec::ExecPool::stripThreadsFlag(argc, argv);
    long requests = 120;
    double rate_rps = 6000.0;
    auto arrivals = serve::ArrivalKind::Poisson;
    if (argc > 1)
        requests = std::atol(argv[1]);
    if (argc > 2)
        rate_rps = std::atof(argv[2]);
    if (argc > 3) {
        if (!std::strcmp(argv[3], "bursty"))
            arrivals = serve::ArrivalKind::Bursty;
        else if (!std::strcmp(argv[3], "diurnal"))
            arrivals = serve::ArrivalKind::Diurnal;
        else if (std::strcmp(argv[3], "poisson")) {
            std::fprintf(stderr,
                         "usage: serving_sim [requests] [rate_rps] "
                         "[poisson|bursty|diurnal] [--threads N]\n");
            return 2;
        }
    }

    pim::PimConfig chip;
    const auto cal = power::defaultCalibration();
    AimPipeline pipeline(chip, cal);
    serve::ModelCache cache(pipeline);

    stream::StreamConfig scfg;
    scfg.trace.arrivals = arrivals;
    scfg.trace.meanRatePerSec = rate_rps;
    scfg.trace.requests = requests;
    scfg.trace.seed = 4242;
    scfg.trace.mix = {{"ResNet18", 0.5, 2000.0},
                      {"GPT2", 0.25, 8000.0},
                      {"ViT", 0.25, 5000.0}};
    std::printf("trace: %ld requests, %s %.0f req/s, mix "
                "ResNet18/GPT2/ViT = 50/25/25, %d host thread%s\n\n",
                requests, serve::arrivalName(arrivals), rate_rps,
                threads, threads == 1 ? "" : "s");

    scfg.fleet.chips = 3;
    scfg.fleet.options.workScale = 0.02;
    scfg.fleet.seed = 17;
    scfg.fleet.threads = threads;

    for (const auto policy : serve::allPolicies()) {
        scfg.fleet.policy = policy;
        const auto report = stream::EventLoop(chip, cal, scfg).run(cache);
        std::printf("%s\n", report.render().c_str());
    }

    std::printf("model cache: %ld misses (compiles, %.1f s), "
                "%ld hits\n",
                cache.misses(), cache.compileMs() / 1e3,
                cache.hits());
    return 0;
}
