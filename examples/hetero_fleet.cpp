/**
 * @file
 * Heterogeneous-fleet scenario: a mixed fleet of two big and two
 * small chip SKUs serves a GPT-2 + ResNet18 + MobileNetV2 trace.
 * GPT-2 (~86 Mweight) outgrows the small bin's capacity, so
 * capability-aware placement routes it to the big parts while the
 * conv models spread everywhere; ResNet18 additionally gang-
 * dispatches across the two big chips.  The per-chip usage table
 * shows the placement: the small chips never touch GPT-2 and the
 * report's placementViolations stays zero.
 *
 * Build & run:
 *   ./build/examples/hetero_fleet [requests] [--threads N]
 */

#include <cstdio>
#include <cstdlib>

#include "exec/ExecPool.hh"
#include "stream/EventLoop.hh"

int
main(int argc, char **argv)
{
    using namespace aim;

    const int threads = exec::ExecPool::stripThreadsFlag(argc, argv);
    long requests = 96;
    if (argc > 1)
        requests = std::atol(argv[1]);

    // Small bin, shrunk further so GPT-2 genuinely does not fit:
    // 16 macros x 4 Mweight = 64 Mweight capacity.
    auto small = serve::smallSku();
    small.weightBufMweightPerMacro = 4.0;

    stream::StreamConfig scfg;
    serve::FleetConfig &fcfg = scfg.fleet;
    fcfg.chips = 4;
    fcfg.skus = {serve::bigSku(), small};
    fcfg.skuOf = {0, 0, 1, 1}; // chips 0-1 big, 2-3 small
    fcfg.options.useLhr = false;
    fcfg.options.workScale = 0.05;
    fcfg.options.mapper = mapping::MapperKind::Sequential;
    fcfg.seed = 17;
    fcfg.threads = threads;
    serve::GangSpec gang;
    gang.model = "ResNet18";
    gang.partition.chips = 2; // lands on the two big parts
    gang.microBatches = 2;
    fcfg.gangs = {gang};

    serve::TraceConfig &tcfg = scfg.trace;
    tcfg.arrivals = serve::ArrivalKind::Poisson;
    tcfg.meanRatePerSec = 4000.0;
    tcfg.requests = requests;
    tcfg.seed = 4242;
    tcfg.mix = {{"GPT2", 0.4, 8000.0},
                {"ResNet18", 0.3, 4000.0},
                {"MobileNetV2", 0.3, 2000.0}};

    std::printf("fleet: 2x big (2048 Mweight) + 2x small (64 "
                "Mweight); GPT-2 fits big only\n\n");

    pim::PimConfig chip;
    const auto cal = power::defaultCalibration();
    AimPipeline pipeline(chip, cal);
    serve::ModelCache cache(pipeline);

    const auto rep = stream::EventLoop(chip, cal, scfg).run(cache);
    std::printf("%s\n", rep.render().c_str());
    std::printf("placement violations: %ld (capability-aware "
                "dispatch keeps this 0)\n",
                rep.placementViolations);
    return rep.placementViolations == 0 ? 0 : 1;
}
