/**
 * @file
 * Property tests of PdnMesh::stepTransient, the backward-Euler RC/RL
 * step behind the di/dt Transient droop backend: unconditional
 * stability at any dt, degeneration to the resistive DC solve as the
 * storage elements vanish, charge conservation over a step-load
 * trace (also at the transient backend's own config), a state moved
 * between meshes stepping on the new mesh's system, and the
 * first-droop overshoot the bump inductance exists to produce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "power/PdnMesh.hh"
#include "power/TransientBackend.hh"

using namespace aim::power;

namespace
{

PdnMeshConfig
transientMesh(double decap_f = 20e-9, double bump_l = 200e-12)
{
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    cfg.decapFarad = decap_f;
    cfg.bumpInductanceH = bump_l;
    return cfg;
}

double
sumVoltage(const PdnSolution &sol)
{
    double acc = 0.0;
    for (double v : sol.voltage)
        acc += v;
    return acc;
}

} // namespace

TEST(TransientMesh, InitIsFixedPointOfDcOperatingPoint)
{
    // Seeded from a converged DC solution under unchanged loads, a
    // step of any size must stay there (the history sources
    // reproduce the DC branch currents exactly).
    PdnMesh mesh(transientMesh());
    mesh.addBlockLoad(4, 4, 8, 8, 2.0);
    const PdnSolution dc = mesh.solve();
    PdnTransientState state = mesh.transientInit(dc);
    for (double dt : {1e-10, 2e-9, 1e-3}) {
        PdnTransientState s = state;
        mesh.stepTransient(dt, s);
        for (size_t i = 0; i < dc.voltage.size(); ++i)
            ASSERT_NEAR(s.sol.voltage[i], dc.voltage[i], 5e-6)
                << "dt " << dt << " node " << i;
    }
}

TEST(TransientMesh, UnconditionallyStableAtLargeDt)
{
    // Backward Euler never diverges, however coarse the step: march
    // a heavy load step at dt from picoseconds to a full second and
    // require every node voltage to stay physical.
    for (double dt : {1e-12, 1e-9, 1e-6, 1e-3, 1.0}) {
        PdnMesh mesh(transientMesh());
        PdnTransientState state = mesh.transientInit(mesh.solve());
        mesh.addBlockLoad(0, 0, 16, 16, 5.0);
        for (int step = 0; step < 50; ++step) {
            mesh.stepTransient(dt, state);
            for (double v : state.sol.voltage) {
                ASSERT_TRUE(std::isfinite(v)) << "dt " << dt;
                ASSERT_GT(v, mesh.config().vdd - 0.5)
                    << "dt " << dt;
                ASSERT_LE(v, mesh.config().vdd + 1e-9)
                    << "dt " << dt;
            }
        }
    }
}

TEST(TransientMesh, DegeneratesToDcSolveWithoutStorageElements)
{
    // decap -> 0 (and the bump branches purely resistive): one
    // transient step IS the DC solve, bit for bit -- same equations,
    // same factor -- and the state it starts from cannot matter.
    PdnMesh mesh(transientMesh(0.0, 0.0));
    mesh.addBlockLoad(4, 4, 8, 8, 2.0);
    mesh.addBlockLoad(10, 2, 3, 3, 0.7);
    const PdnSolution dc = mesh.solve();

    // Perturb the start so a memory of it would show.
    PdnTransientState state = mesh.transientInit(dc);
    for (double &v : state.sol.voltage)
        v -= 1e-4;
    for (double &i : state.bumpA)
        i += 0.05;
    mesh.stepTransient(2e-9, state);
    ASSERT_EQ(state.sol.voltage.size(), dc.voltage.size());
    for (size_t i = 0; i < dc.voltage.size(); ++i)
        ASSERT_EQ(state.sol.voltage[i], dc.voltage[i]) << "node " << i;
    EXPECT_EQ(state.sol.bumpCurrentA, dc.bumpCurrentA);
}

TEST(TransientMesh, ConvergesToDcSolveAsDecapVanishes)
{
    // Small but non-zero storage: after the transient settles the
    // solution must approach the resistive DC solve, the closer the
    // smaller the decap.
    PdnMesh dc_mesh(transientMesh(0.0, 0.0));
    dc_mesh.addBlockLoad(4, 4, 8, 8, 2.0);
    const PdnSolution dc = dc_mesh.solve();

    double prev_err = 1e9;
    for (double decap : {2e-9, 2e-11, 2e-13}) {
        PdnMesh mesh(transientMesh(decap, 0.0));
        PdnTransientState state =
            mesh.transientInit(mesh.solve());
        mesh.addBlockLoad(4, 4, 8, 8, 2.0);
        // One step only: with tiny RC the state must already be at
        // the DC point, with no settling time.
        mesh.stepTransient(2e-9, state);
        double err = 0.0;
        for (size_t i = 0; i < dc.voltage.size(); ++i)
            err = std::max(err, std::fabs(state.sol.voltage[i] -
                                          dc.voltage[i]));
        EXPECT_LE(err, prev_err + 1e-12) << "decap " << decap;
        prev_err = err;
    }
    // At the smallest decap the single step lands on DC outright.
    EXPECT_LT(prev_err, 1e-5);
}

TEST(TransientMesh, ChargeConservedOverStepLoadTrace)
{
    // Summing the implicit KCL over all nodes and steps: the charge
    // delivered through the bumps equals the charge drawn by the
    // loads plus the charge (dis)charged into the decaps.  Two
    // inputs: the plain test mesh, and the transient backend's own
    // per-window config and step -- the accounting must hold at the
    // config that runs.
    IrBackendConfig bcfg;
    bcfg.kind = IrBackendKind::Transient;
    const TransientBackend bk(bcfg, defaultCalibration());
    const std::pair<PdnMeshConfig, double> inputs[] = {
        {transientMesh(), 2e-9}, {bk.transientConfig(), bk.dtSec()}};

    for (const auto &[cfg, dt] : inputs) {
        PdnMesh mesh(cfg);
        PdnTransientState state = mesh.transientInit(mesh.solve());
        const double v_start = sumVoltage(state.sol);

        double bump_charge = 0.0;
        double load_charge = 0.0;
        const int steps_per_phase = 40;
        const double loads[] = {3.0, 0.5, 5.0};
        for (double load : loads) {
            mesh.clearLoads();
            mesh.addBlockLoad(2, 2, 12, 12, load);
            for (int s = 0; s < steps_per_phase; ++s) {
                mesh.stepTransient(dt, state);
                bump_charge += state.sol.bumpCurrentA * dt;
                load_charge += load * dt;
            }
        }
        const double decap_charge =
            cfg.decapFarad * (sumVoltage(state.sol) - v_start);
        // decap_charge is negative here (the caps discharged towards
        // the loaded operating point), so the bumps delivered less
        // than the loads consumed.
        EXPECT_NEAR(bump_charge, load_charge + decap_charge,
                    1e-6 * load_charge)
            << "size " << cfg.size << " dt " << dt;
    }
}

TEST(TransientMesh, StateSteppedOnAnotherMeshUsesThatMeshsSystem)
{
    // A state carries voltages and bump currents, never the step
    // system: stepped on a 20 nF mesh and then on a 5 nF mesh at the
    // same dt, it must follow the 5 nF mesh's equations.  Under
    // unchanged loads the DC point is a fixed point of both meshes
    // (decap does not enter DC), so the state must stay there.
    PdnMesh big(transientMesh(20e-9));
    PdnMesh small(transientMesh(5e-9));
    big.addBlockLoad(4, 4, 8, 8, 2.0);
    small.addBlockLoad(4, 4, 8, 8, 2.0);
    const PdnSolution dc = big.solve();
    const double vdd = big.config().vdd;

    PdnTransientState state = big.transientInit(dc);
    for (int s = 0; s < 3; ++s)
        big.stepTransient(2e-9, state);
    small.stepTransient(2e-9, state);
    EXPECT_NEAR(state.sol.worstDropMv(vdd), dc.worstDropMv(vdd), 5e-3);
    for (size_t i = 0; i < dc.voltage.size(); ++i)
        ASSERT_NEAR(state.sol.voltage[i], dc.voltage[i], 5e-6)
            << "node " << i;
}

TEST(TransientMesh, StepLoadOvershootsDcDroopThenRecovers)
{
    // The reason this backend exists (paper Fig. 17 first droop):
    // on a load step the bump inductors cannot follow the di/dt, the
    // decap supplies the difference, and the worst node droop
    // transiently exceeds the DC droop of the same load before the
    // branch currents catch up.
    PdnMesh mesh(transientMesh());
    const double vdd = mesh.config().vdd;

    // Settle at a light load.
    mesh.addBlockLoad(2, 2, 12, 12, 0.5);
    PdnTransientState state = mesh.transientInit(mesh.solve());

    // DC droop of the heavy load (the converged target).
    PdnMesh dc_mesh(transientMesh());
    dc_mesh.addBlockLoad(2, 2, 12, 12, 4.0);
    const double dc_worst = dc_mesh.solve().worstDropMv(vdd);

    // Step to the heavy load and march.
    mesh.clearLoads();
    mesh.addBlockLoad(2, 2, 12, 12, 4.0);
    double peak = 0.0;
    double settled = 0.0;
    for (int s = 0; s < 400; ++s) {
        mesh.stepTransient(2e-9, state);
        settled = state.sol.worstDropMv(vdd);
        peak = std::max(peak, settled);
    }
    EXPECT_GT(peak, dc_worst * 1.02)
        << "no first-droop overshoot over the DC solution";
    EXPECT_NEAR(settled, dc_worst, dc_worst * 0.01)
        << "transient did not recover to the DC droop";
}

TEST(TransientMesh, AutoDtDerivesStepFromGroupFrequency)
{
    IrBackendConfig cfg;
    cfg.kind = IrBackendKind::Transient;
    cfg.transientDtNs = 0.0; // auto mode
    cfg.windowCycles = 8;
    const Calibration cal = defaultCalibration();
    const TransientBackend bk(cfg, cal);
    EXPECT_EQ(bk.dtSec(), 0.0);

    // The step is the window's physical duration at the fastest
    // active group's clock: windowCycles / f.
    EXPECT_DOUBLE_EQ(bk.effectiveDtSec(1.0), 8.0 / 1e9);
    EXPECT_DOUBLE_EQ(bk.effectiveDtSec(2.0), 4.0 / 1e9);
    // No active groups: fall back to the nominal clock.
    EXPECT_DOUBLE_EQ(bk.effectiveDtSec(0.0),
                     8.0 / (cal.fNominal * 1e9));

    // A fixed-dt backend ignores the frequency entirely.
    cfg.transientDtNs = 2.0;
    const TransientBackend fixed(cfg, cal);
    EXPECT_DOUBLE_EQ(fixed.effectiveDtSec(1.0), 2e-9);
    EXPECT_DOUBLE_EQ(fixed.effectiveDtSec(3.0), 2e-9);
}

TEST(TransientMesh, AutoDtBackendRejectsBadConfig)
{
    const Calibration cal = defaultCalibration();
    IrBackendConfig bad;
    bad.kind = IrBackendKind::Transient;
    bad.transientDtNs = -1.0;
    EXPECT_DEATH(TransientBackend(bad, cal), "dt");
    IrBackendConfig bad_win;
    bad_win.kind = IrBackendKind::Transient;
    bad_win.transientDtNs = 0.0;
    bad_win.windowCycles = 0;
    EXPECT_DEATH(TransientBackend(bad_win, cal), "window");
}

TEST(TransientMesh, RejectsNonPositiveDt)
{
    PdnMesh mesh(transientMesh());
    PdnTransientState state = mesh.transientInit(mesh.solve());
    EXPECT_DEATH(mesh.stepTransient(0.0, state), "dt");
    EXPECT_DEATH(mesh.stepTransient(-1e-9, state), "dt");
}

TEST(TransientMesh, RejectsNegativeStorageConfig)
{
    PdnMeshConfig bad = transientMesh();
    bad.decapFarad = -1e-9;
    EXPECT_DEATH(PdnMesh{bad}, "decap");
    PdnMeshConfig bad_l = transientMesh();
    bad_l.bumpInductanceH = -1e-12;
    EXPECT_DEATH(PdnMesh{bad_l}, "inductance");
}
