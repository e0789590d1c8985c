/**
 * @file
 * Property suite of the PDN solver (power/PdnMesh): the one direct
 * solve must satisfy KCL at every node and deliver exactly the load
 * through the bumps on randomized meshes; a step without storage
 * elements must be the DC solve bit for bit; the storage step must
 * satisfy its implicit backward-Euler KCL on randomized meshes,
 * storage and step sizes; and the default geometry is pinned by
 * %.17g goldens.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "power/PdnMesh.hh"

using namespace aim::power;

namespace
{

/** One randomized mesh problem: config + a handful of block loads. */
struct RandomProblem
{
    PdnMeshConfig cfg;
    struct Load
    {
        int row0, col0, rows, cols;
        double amps;
    };
    std::vector<Load> loads;
};

/**
 * Deterministic random problem generator.  Sizes, pitches and
 * conductances span the configurations the droop backends use
 * (meshSize 16 default, 24 in bench_fig17, 48 solver default).
 */
RandomProblem
randomProblem(std::mt19937_64 &rng)
{
    static const int sizes[] = {12, 16, 24, 33, 48};
    RandomProblem p;
    p.cfg.size = sizes[rng() % 5];
    p.cfg.bumpPitch = 3 + static_cast<int>(rng() % 4);
    std::uniform_real_distribution<double> sheet(8.0, 60.0);
    std::uniform_real_distribution<double> bump(30.0, 200.0);
    std::uniform_real_distribution<double> amps(0.05, 1.5);
    p.cfg.sheetConductance = sheet(rng);
    p.cfg.bumpConductance = bump(rng);
    const int n_loads = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < n_loads; ++i) {
        RandomProblem::Load ld;
        ld.rows = 1 + static_cast<int>(rng() % (p.cfg.size / 2));
        ld.cols = 1 + static_cast<int>(rng() % (p.cfg.size / 2));
        ld.row0 = static_cast<int>(rng() % (p.cfg.size - ld.rows));
        ld.col0 = static_cast<int>(rng() % (p.cfg.size - ld.cols));
        ld.amps = amps(rng);
        p.loads.push_back(ld);
    }
    return p;
}

PdnMesh
buildMesh(const RandomProblem &p)
{
    PdnMesh mesh(p.cfg);
    for (const auto &ld : p.loads)
        mesh.addBlockLoad(ld.row0, ld.col0, ld.rows, ld.cols,
                          ld.amps);
    return mesh;
}

} // namespace

TEST(SolverProperty, ResidualBelowToleranceOnRandomMeshes)
{
    // Physics contract of the direct solve, checked outside the
    // solver: at every node the bump branch's current in equals the
    // load plus the sheet currents out, and the bumps deliver the
    // total load.
    std::mt19937_64 rng(20250808);
    for (int trial = 0; trial < 8; ++trial) {
        const RandomProblem p = randomProblem(rng);
        const PdnMesh mesh = buildMesh(p);
        const PdnSolution sol = mesh.solve();
        const int n = p.cfg.size;
        const double g = p.cfg.sheetConductance;

        std::vector<double> load(static_cast<size_t>(n) * n, 0.0);
        double total = 0.0;
        for (const auto &ld : p.loads) {
            const double per_node = ld.amps / (ld.rows * ld.cols);
            for (int r = ld.row0; r < ld.row0 + ld.rows; ++r)
                for (int c = ld.col0; c < ld.col0 + ld.cols; ++c)
                    load[mesh.nodeIndex(r, c)] += per_node;
            total += ld.amps;
        }
        const std::vector<double> &v = sol.voltage;
        double worst = 0.0;
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c) {
                const size_t i = mesh.nodeIndex(r, c);
                double out = load[i];
                if (r > 0)
                    out += g * (v[i] - v[i - n]);
                if (r + 1 < n)
                    out += g * (v[i] - v[i + n]);
                if (c > 0)
                    out += g * (v[i] - v[i - 1]);
                if (c + 1 < n)
                    out += g * (v[i] - v[i + 1]);
                if (mesh.isBump(r, c))
                    out -= p.cfg.bumpConductance * (p.cfg.vdd - v[i]);
                worst = std::max(worst, std::fabs(out));
            }
        EXPECT_LE(worst, 1e-10) << "trial " << trial << " size " << n;
        EXPECT_NEAR(sol.bumpCurrentA, total, 1e-11 * total)
            << "trial " << trial << " size " << n;
    }
}

TEST(SolverProperty, TransientStepIsDcSolveWithoutStorage)
{
    // With C = L = 0 the backward-Euler system is the DC system: the
    // step reuses the mesh's DC factor and the same substitution, so
    // the voltages must match solve() bit for bit, not just within
    // rounding.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(3, 3, 8, 8, 1.75);
    PdnTransientState state = mesh.transientInit(mesh.solve());
    mesh.addBlockLoad(3, 3, 8, 8, 0.4); // step the demand
    mesh.stepTransient(1e-9, state);
    const PdnSolution dc = mesh.solve();

    ASSERT_EQ(state.sol.voltage.size(), dc.voltage.size());
    for (size_t i = 0; i < dc.voltage.size(); ++i)
        ASSERT_EQ(state.sol.voltage[i], dc.voltage[i]);
    EXPECT_EQ(state.sol.bumpCurrentA, dc.bumpCurrentA);
    EXPECT_EQ(state.sol.bumpVoltage, dc.bumpVoltage);
}

TEST(SolverProperty, TransientStepSatisfiesImplicitKcl)
{
    // The storage step solves the backward-Euler equations outright:
    // at every node, decap current + load + sheet currents out equal
    // the bump branch's current in, with the branch current obeying
    // L dI/dt = Vdd - V - I/gb over the step.  Randomized meshes,
    // storage and loads; dt is redrawn every step from a small set,
    // so each mesh both rebuilds its factor and reuses it.
    std::mt19937_64 rng(4242);
    std::uniform_real_distribution<double> decap_nf(1.0, 40.0);
    std::uniform_real_distribution<double> bump_ph(0.0, 400.0);
    std::uniform_real_distribution<double> delta_a(-0.5, 0.5);
    const double dts[] = {0.5e-9, 1e-9, 2e-9, 4e-9};
    for (int trial = 0; trial < 8; ++trial) {
        RandomProblem p = randomProblem(rng);
        p.cfg.decapFarad = decap_nf(rng) * 1e-9;
        p.cfg.bumpInductanceH = bump_ph(rng) * 1e-12;
        const int n = p.cfg.size;
        const double g = p.cfg.sheetConductance;
        const double gb = p.cfg.bumpConductance;
        const double vdd = p.cfg.vdd;

        PdnMesh mesh(p.cfg);
        std::vector<double> load(static_cast<size_t>(n) * n, 0.0);
        auto add_block = [&](const RandomProblem::Load &ld,
                             double amps) {
            std::vector<PdnLoadDelta> deltas;
            const double per_node = amps / (ld.rows * ld.cols);
            for (int r = ld.row0; r < ld.row0 + ld.rows; ++r)
                for (int c = ld.col0; c < ld.col0 + ld.cols; ++c) {
                    deltas.push_back({mesh.nodeIndex(r, c), per_node});
                    load[mesh.nodeIndex(r, c)] += per_node;
                }
            mesh.applyLoadDeltas(deltas);
        };
        for (const auto &ld : p.loads)
            add_block(ld, ld.amps);
        PdnTransientState state = mesh.transientInit(mesh.solve());

        for (int step = 0; step < 12; ++step) {
            const auto &ld = p.loads[rng() % p.loads.size()];
            add_block(ld, delta_a(rng));
            const double dt = dts[rng() % 4];
            const std::vector<double> vp = state.sol.voltage;
            const std::vector<double> ip = state.bumpA;
            mesh.stepTransient(dt, state);

            const std::vector<double> &v = state.sol.voltage;
            const double gc = p.cfg.decapFarad / dt;
            const double l_dt = p.cfg.bumpInductanceH / dt;
            double worst = 0.0;
            size_t k = 0;
            for (int r = 0; r < n; ++r)
                for (int c = 0; c < n; ++c) {
                    const size_t i = mesh.nodeIndex(r, c);
                    double out = gc * (v[i] - vp[i]) + load[i];
                    if (r > 0)
                        out += g * (v[i] - v[i - n]);
                    if (r + 1 < n)
                        out += g * (v[i] - v[i + n]);
                    if (c > 0)
                        out += g * (v[i] - v[i - 1]);
                    if (c + 1 < n)
                        out += g * (v[i] - v[i + 1]);
                    if (mesh.isBump(r, c)) {
                        // L (I - I_prev)/dt = Vdd - V - I/gb.
                        const double i_bump =
                            (vdd - v[i] + l_dt * ip[k]) /
                            (l_dt + 1.0 / gb);
                        EXPECT_NEAR(state.bumpA[k], i_bump, 1e-9)
                            << "trial " << trial << " bump " << k;
                        out -= i_bump;
                        ++k;
                    }
                    worst = std::max(worst, std::fabs(out));
                }
            EXPECT_LE(worst, 1e-9)
                << "trial " << trial << " step " << step << " size "
                << n << " dt " << dt;
        }
    }
}

TEST(SolverProperty, ApplyLoadDeltasMatchesBlockLoads)
{
    // The batched per-window delta path is only a faster spelling of
    // addBlockLoad: scattering the same per-node amps must leave the
    // mesh in the same state.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    PdnMesh a(cfg);
    PdnMesh b(cfg);

    a.addBlockLoad(2, 3, 4, 5, 1.23);
    std::vector<PdnLoadDelta> deltas;
    const double per_node = 1.23 / (4.0 * 5.0);
    for (int r = 2; r < 6; ++r)
        for (int c = 3; c < 8; ++c)
            deltas.push_back({b.nodeIndex(r, c), per_node});
    b.applyLoadDeltas(deltas);

    const PdnSolution sa = a.solve();
    const PdnSolution sb = b.solve();
    for (size_t i = 0; i < sa.voltage.size(); ++i)
        EXPECT_NEAR(sa.voltage[i], sb.voltage[i], 1e-12);
}

TEST(SolverProperty, DefaultPathGoldens)
{
    // %.17g goldens of the direct solve at the solver's default
    // geometry (48 x 48) and at 24 x 24 after a load change.  Drift
    // here means the solve changed physics, not code shape.
    PdnMeshConfig cfg;
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(6, 6, 16, 16, 2.0);
    mesh.addBlockLoad(30, 10, 8, 24, 1.0);
    const PdnSolution big = mesh.solve();
    EXPECT_DOUBLE_EQ(big.worstDropMv(cfg.vdd), 4.8319288528266835);
    EXPECT_DOUBLE_EQ(big.meanDropMv(cfg.vdd), 1.0637275001407209);
    EXPECT_DOUBLE_EQ(big.bumpCurrentA, 3.0000000000002491);
    EXPECT_DOUBLE_EQ(big.bumpVoltage, 0.7494791666666667);

    PdnMeshConfig rcfg = cfg;
    rcfg.size = 24;
    rcfg.bumpPitch = 6;
    PdnMesh small(rcfg);
    small.addBlockLoad(4, 4, 10, 10, 1.5);
    small.solve();
    small.addBlockLoad(4, 4, 10, 10, 0.05);
    const PdnSolution stepped = small.solve();
    EXPECT_DOUBLE_EQ(stepped.worstDropMv(rcfg.vdd),
                     6.6890206669890651);
    EXPECT_DOUBLE_EQ(stepped.bumpCurrentA, 1.5499999999998926);
}
