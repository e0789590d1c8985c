/**
 * @file
 * Droop-backend fidelity/speed sweep: runs the model zoo and a
 * synthetic HR sweep through the IR-drop backends (power/IrBackend)
 * and reports how closely the PDN-mesh backend (exact DC solves
 * through one shared factor) tracks the Equation-2 analytic backend,
 * what the di/dt transient backend adds on load steps, and at what
 * cost.
 *
 * This is the repo's stand-in for the paper's model-vs-RedHawk
 * validation (Figures 4/16/17): the analytic backend is the
 * architecture-level model, the mesh backend the layout-level
 * reference, and the transient backend reproduces the Fig. 17
 * first-droop overshoot a load step excites.  `--smoke` runs a
 * reduced sweep and exits non-zero unless the droop correlation is
 * >= 0.95, the mesh backend sustains >= 50% of the analytic
 * windows/sec (a window re-solves only when a group's demand moved
 * past rtogThreshold, as one block solve of the mesh; ~60-63% on a
 * 4-vCPU Xeon VM), and the
 * transient backend both overshoots its converged DC droop by
 * 3%..60% on a step load and sustains >= 50% of the analytic
 * windows/sec (the CI gate).  The transient speed is matched: both
 * backends run the same HR-sweep rounds, and the gate takes the
 * median ratio of three passes (the block-solved step reads ~58-60%
 * on a 4-vCPU Xeon VM, the banded-Cholesky step it replaced 44-47%;
 * the 40-sweep SOR step before that read 36-41%).
 */

#include "BenchCommon.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "power/TransientBackend.hh"
#include "sim/Runtime.hh"
#include "util/Stats.hh"
#include "workload/ModelZoo.hh"

using namespace aim;
using namespace aim::bench;

namespace
{

using Clock = std::chrono::steady_clock;

struct BackendRun
{
    double irMeanMv = 0.0;
    double irWorstMv = 0.0;
    double meanRtog = 0.0;
    double tops = 0.0;
    double windows = 0.0;
    double hostMs = 0.0;
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

BackendRun
measure(const AimPipeline &pipe, const CompiledModel &compiled)
{
    const auto t0 = Clock::now();
    const AimReport rep = pipe.execute(compiled);
    BackendRun out;
    out.hostMs = msSince(t0);
    out.irMeanMv = rep.run.irMeanMv;
    out.irWorstMv = rep.run.irWorstMv;
    out.meanRtog = rep.run.meanRtog;
    out.tops = rep.run.tops;
    out.windows = static_cast<double>(rep.run.usefulWindows +
                                      rep.run.stallWindows);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    banner("Backend fidelity",
           "analytic (Equation 2) vs mesh (direct PDN solves)");

    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const AimPipeline pipe(cfg, cal);

    AimOptions opts;
    opts.useLhr = false; // skip QAT: compile in milliseconds
    opts.workScale = smoke ? 0.05 : 0.2;

    auto zoo = workload::allModels();
    if (smoke)
        zoo.resize(2); // ResNet18 + MobileNetV2

    std::vector<double> analytic_mean;
    std::vector<double> mesh_mean;
    std::vector<double> rtog_points;
    double worst_delta_mv = 0.0;
    double analytic_windows = 0.0;
    double analytic_ms = 0.0;
    double mesh_windows = 0.0;
    double mesh_ms = 0.0;

    util::Table t("zoo droop by backend");
    t.setHeader({"model", "Rtog", "eq2 mean", "eq2 worst",
                 "mesh mean", "mesh worst", "d mean %"});
    for (const auto &model : zoo) {
        AimOptions a = opts;
        a.irBackend = power::IrBackendKind::Analytic;
        AimOptions m = opts;
        m.irBackend = power::IrBackendKind::Mesh;
        const auto compiled_a = pipe.compile(model, a);
        const auto compiled_m = pipe.compile(model, m);
        const BackendRun ra = measure(pipe, compiled_a);
        const BackendRun rm = measure(pipe, compiled_m);

        analytic_mean.push_back(ra.irMeanMv);
        mesh_mean.push_back(rm.irMeanMv);
        rtog_points.push_back(ra.meanRtog);
        worst_delta_mv =
            std::max(worst_delta_mv,
                     std::fabs(ra.irWorstMv - rm.irWorstMv));
        analytic_windows += ra.windows;
        analytic_ms += ra.hostMs;
        mesh_windows += rm.windows;
        mesh_ms += rm.hostMs;

        t.addRow({model.name, util::Table::fmt(ra.meanRtog, 3),
                  util::Table::fmt(ra.irMeanMv, 2),
                  util::Table::fmt(ra.irWorstMv, 2),
                  util::Table::fmt(rm.irMeanMv, 2),
                  util::Table::fmt(rm.irWorstMv, 2),
                  util::Table::fmt((rm.irMeanMv - ra.irMeanMv) /
                                       ra.irMeanMv * 100.0,
                                   1)});
    }
    std::printf("%s", t.render().c_str());

    // Synthetic HR sweep at full chip occupancy: paired droop points
    // across the level range (the mesh and transient backends'
    // responses vs Equation 2's line, with occupancy held equal).
    pim::StreamSpec stream;
    stream.density = 0.55;
    stream.nonNegative = true;
    std::vector<double> transient_sweep_mean;
    // Sweep-only analytic points: analytic_mean also carries the zoo
    // rows above, but the transient backend only runs the HR sweep,
    // and pearson() needs the pairing to line up.
    std::vector<double> analytic_sweep_mean;
    const double hr_step = smoke ? 0.10 : 0.05;
    const long sweep_macs = smoke ? 2'000'000 : 10'000'000;
    for (int k = 0; k < 3; ++k) {
        sim::RunConfig rc;
        rc.mapper = mapping::MapperKind::Sequential;
        rc.irBackend = k == 0   ? power::IrBackendKind::Analytic
                       : k == 1 ? power::IrBackendKind::Mesh
                                : power::IrBackendKind::Transient;
        const sim::Runtime rt(cfg, cal, rc);
        for (double hr = 0.20; hr <= 0.601; hr += hr_step) {
            const auto t0 = Clock::now();
            const auto rep =
                rt.run({syntheticRound(hr, 64, sweep_macs)}, stream);
            const double ms = msSince(t0);
            const double windows = static_cast<double>(
                rep.usefulWindows + rep.stallWindows);
            if (k == 0) {
                analytic_mean.push_back(rep.irMeanMv);
                analytic_sweep_mean.push_back(rep.irMeanMv);
                rtog_points.push_back(rep.meanRtog);
                analytic_windows += windows;
                analytic_ms += ms;
            } else if (k == 1) {
                mesh_mean.push_back(rep.irMeanMv);
                mesh_windows += windows;
                mesh_ms += ms;
            } else {
                transient_sweep_mean.push_back(rep.irMeanMv);
            }
        }
    }

    // Matched transient speed: analytic and transient run the same
    // HR-sweep rounds, interleaved point by point, and the ratio of
    // their windows/sec is the median of three passes (one pass is a
    // few milliseconds of host time, too noisy to gate on alone).
    std::vector<double> transient_ratios;
    {
        sim::RunConfig rc;
        rc.mapper = mapping::MapperKind::Sequential;
        rc.irBackend = power::IrBackendKind::Analytic;
        const sim::Runtime rt_a(cfg, cal, rc);
        rc.irBackend = power::IrBackendKind::Transient;
        const sim::Runtime rt_t(cfg, cal, rc);
        const sim::Runtime *rts[2] = {&rt_a, &rt_t};
        for (int pass = 0; pass < 3; ++pass) {
            double windows[2] = {0.0, 0.0};
            double ms[2] = {0.0, 0.0};
            for (double hr = 0.20; hr <= 0.601; hr += hr_step) {
                const auto round = syntheticRound(hr, 64, sweep_macs);
                for (int b = 0; b < 2; ++b) {
                    const auto t0 = Clock::now();
                    const auto rep = rts[b]->run({round}, stream);
                    ms[b] += msSince(t0);
                    windows[b] += static_cast<double>(
                        rep.usefulWindows + rep.stallWindows);
                }
            }
            transient_ratios.push_back((windows[1] / ms[1]) /
                                       (windows[0] / ms[0]));
        }
        std::sort(transient_ratios.begin(), transient_ratios.end());
    }
    const double transient_speed_ratio = transient_ratios[1];

    // Occupancy: what the mesh sees and Equation 2 cannot.  A
    // quarter-occupied chip (16 tasks -> 4 of 16 groups) draws a
    // quarter of the current in one corner; the resistive network
    // relaxes its droop, while the analytic model charges the
    // occupancy-blind per-group estimate.
    {
        sim::RunConfig rc;
        rc.mapper = mapping::MapperKind::Sequential;
        rc.irBackend = power::IrBackendKind::Analytic;
        const sim::Runtime rt_a(cfg, cal, rc);
        rc.irBackend = power::IrBackendKind::Mesh;
        const sim::Runtime rt_m(cfg, cal, rc);
        const auto quarter = syntheticRound(0.40, 16, 4'000'000);
        const auto full = syntheticRound(0.40, 64, 4'000'000);
        const double a_q =
            rt_a.run({quarter}, stream).irMeanMv;
        const double m_q = rt_m.run({quarter}, stream).irMeanMv;
        const double a_f = rt_a.run({full}, stream).irMeanMv;
        const double m_f = rt_m.run({full}, stream).irMeanMv;
        std::printf("\noccupancy effect (HR 0.40): full chip eq2 "
                    "%.1f / mesh %.1f mV; quarter chip eq2 %.1f / "
                    "mesh %.1f mV\n",
                    a_f, m_f, a_q, m_q);
        std::printf("  -> the mesh relaxes droop by %.0f%% at "
                    "quarter occupancy; Equation 2 cannot see "
                    "placement\n",
                    (1.0 - m_q / a_q) * 100.0);
    }

    // Transient (di/dt) section: what the RC mesh adds that any DC
    // re-solve cannot -- first-droop overshoot on a load step
    // (paper Fig. 17).  Settle the eval at light uniform activity,
    // step every group to heavy, and track the mean droop transient
    // against its converged (DC) level.
    double overshoot_ratio = 0.0;
    {
        power::IrBackendConfig bc;
        bc.kind = power::IrBackendKind::Transient;
        const power::TransientBackend bk(bc, cal);
        std::vector<std::vector<int>> layout(
            static_cast<size_t>(bc.groups));
        for (int g = 0; g < bc.groups; ++g)
            for (int m = 0; m < bc.macrosPerGroup; ++m)
                layout[static_cast<size_t>(g)].push_back(
                    g * bc.macrosPerGroup + m);
        auto window = [&](double rtog) {
            std::vector<power::GroupWindow> gw(
                static_cast<size_t>(bc.groups));
            for (auto &w : gw) {
                w.active = true;
                w.v = cal.vddNominal;
                w.fGhz = cal.fNominal;
                w.rtog = rtog;
            }
            return gw;
        };
        auto eval = bk.newEval(layout);
        util::Rng rng(7);
        std::vector<double> drops(
            static_cast<size_t>(bc.groups), 0.0);
        auto mean = [&] {
            double acc = 0.0;
            for (double d : drops)
                acc += d;
            return acc / static_cast<double>(drops.size());
        };
        const auto low = window(0.10);
        for (int w = 0; w < 300; ++w)
            eval->window(low, rng, drops);
        const auto high = window(0.60);
        double peak = 0.0;
        int peak_window = 0;
        double settled_acc = 0.0;
        long settled_n = 0;
        for (int w = 0; w < 400; ++w) {
            eval->window(high, rng, drops);
            const double m = mean();
            if (m > peak) {
                peak = m;
                peak_window = w;
            }
            if (w >= 300) {
                settled_acc += m;
                ++settled_n;
            }
        }
        const double settled =
            settled_acc / static_cast<double>(settled_n);
        overshoot_ratio = settled > 0.0 ? peak / settled : 0.0;
        std::printf(
            "\nfirst droop (Rtog 0.10 -> 0.60 step, dt %.1f ns, "
            "decap %.0f nF/node, bump L %.0f pH):\n",
            bc.transientDtNs, bc.transientDecapNf,
            bc.transientBumpPh);
        std::printf("  peak %.1f mV at window %d, converged %.1f mV "
                    "-> overshoot ratio %.3f (DC backends: 1.000 "
                    "by construction)\n",
                    peak, peak_window, settled, overshoot_ratio);
    }

    const double droop_corr =
        util::pearson(analytic_mean, mesh_mean);
    const double rtog_corr_mesh =
        util::pearson(rtog_points, mesh_mean);
    const double transient_corr =
        util::pearson(analytic_sweep_mean, transient_sweep_mean);
    const double analytic_wps =
        analytic_ms > 0.0 ? analytic_windows / (analytic_ms / 1e3)
                          : 0.0;
    const double mesh_wps =
        mesh_ms > 0.0 ? mesh_windows / (mesh_ms / 1e3) : 0.0;
    const double speed_ratio =
        analytic_wps > 0.0 ? mesh_wps / analytic_wps : 0.0;

    std::printf("\ndroop correlation (eq2 vs mesh, %zu points): "
                "r = %.4f\n",
                analytic_mean.size(), droop_corr);
    std::printf("droop correlation (eq2 vs transient, HR sweep, "
                "%zu points): r = %.4f\n",
                transient_sweep_mean.size(), transient_corr);
    std::printf("Rtog/droop correlation of the mesh backend: "
                "r = %.4f (paper Fig. 4: 0.977 DPIM)\n",
                rtog_corr_mesh);
    std::printf("worst-case |droop delta|: %.2f mV\n",
                worst_delta_mv);
    std::printf("windows/sec: analytic %.0f, mesh %.0f "
                "(ratio %.1f%%)\n",
                analytic_wps, mesh_wps, speed_ratio * 100.0);
    std::printf("transient windows/sec on the same HR-sweep rounds: "
                "%.1f%% of analytic (median of %.1f%% / %.1f%% / "
                "%.1f%%)\n",
                transient_speed_ratio * 100.0,
                transient_ratios[0] * 100.0,
                transient_ratios[1] * 100.0,
                transient_ratios[2] * 100.0);

    if (smoke) {
        const bool mesh_ok =
            droop_corr >= 0.95 && speed_ratio >= 0.50;
        // Fig.-17 envelope: a real first droop (> +3%) that is a
        // transient, not a runaway (< +60%), at a usable cost.
        const bool transient_ok = overshoot_ratio >= 1.03 &&
                                  overshoot_ratio <= 1.60 &&
                                  transient_speed_ratio >= 0.50;
        std::printf("smoke gate: correlation >= 0.95 and mesh speed "
                    "ratio >= 50%% ... %s\n",
                    mesh_ok ? "PASS" : "FAIL");
        std::printf("smoke gate: transient overshoot in [1.03, "
                    "1.60] and matched speed ratio >= 50%% ... %s\n",
                    transient_ok ? "PASS" : "FAIL");
        return mesh_ok && transient_ok ? 0 : 1;
    }
    return 0;
}
