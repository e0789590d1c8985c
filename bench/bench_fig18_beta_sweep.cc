/**
 * @file
 * Paper Figure 18: impact of beta on IR-Booster, normalized against
 * IR-Booster without aggressive adjustment (safe level only).
 * Smaller beta tightens the adjustment loop: better mitigation, more
 * IRFailures and thus more delay cycles.  ViT benefits more than
 * ResNet18 from aggressive adjustment (input-dependent operators).
 *
 * Every (model, beta) point is an independent end-to-end pipeline
 * run (the dominant cost of this bench), so the safe-level reference
 * and the 9 beta points of each model run together on an
 * exec::ExecPool into point-indexed slots; pass --threads N to use N
 * host threads.  The table is identical at any thread count.
 */

#include "BenchCommon.hh"

#include "exec/ExecPool.hh"

using namespace aim;
using namespace aim::bench;

int
main(int argc, char **argv)
{
    const int threads = exec::ExecPool::stripThreadsFlag(argc, argv);
    banner("Figure 18", "impact of beta (normalized to safe-level "
                        "operation)");

    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    AimPipeline pipe(cfg, cal);
    exec::ExecPool pool(threads);
    const std::vector<int> betas = {90, 80, 70, 60, 50, 40,
                                    30, 20, 10};

    for (const char *name : {"ResNet18", "ViT"}) {
        const auto model = workload::modelByName(name);

        // Point 0 is the reference: IR-Booster without aggressive
        // adjustment (safe level only), low-power mode as in the
        // paper's framing.  Points 1..N are the beta sweep.
        std::vector<AimReport> reports(betas.size() + 1);
        pool.parallelFor(
            static_cast<long>(reports.size()), [&](long i) {
                AimOptions opts;
                opts.mode = booster::BoostMode::LowPower;
                opts.workScale = 0.05;
                if (i == 0)
                    opts.aggressiveAdjustment = false;
                else
                    opts.beta = betas[static_cast<size_t>(i - 1)];
                reports[static_cast<size_t>(i)] = pipe.run(model, opts);
            });

        const double signoff = cal.staticDropMv + cal.dynDropFullMv;
        const double ref_mit = signoff - reports[0].run.irMeanMv;
        const double ref_delay =
            static_cast<double>(reports[0].run.usefulWindows +
                                reports[0].run.stallWindows);

        util::Table t(std::string(name) + ": beta sweep");
        t.setHeader({"beta", "mitigation ability", "delay cycles",
                     "failures", "mean level %"});
        for (size_t b = 0; b < betas.size(); ++b) {
            const auto &rep = reports[b + 1];
            const double mit = signoff - rep.run.irMeanMv;
            const double delay =
                static_cast<double>(rep.run.usefulWindows +
                                    rep.run.stallWindows);
            t.addRow({std::to_string(betas[b]),
                      util::Table::fmt(mit / ref_mit, 3),
                      util::Table::fmt(delay / ref_delay, 3),
                      std::to_string(rep.run.failures),
                      util::Table::fmt(rep.run.meanLevel, 1)});
        }
        t.print();
    }
    std::printf("Shape (paper): mitigation ability rises as beta "
                "falls, at the cost of extra delay cycles; the ViT "
                "curves move more than ResNet18's.\n");
    return 0;
}
