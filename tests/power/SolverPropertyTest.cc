/**
 * @file
 * Property suite gating the PDN solver rebuild (red-black SOR +
 * geometric multigrid): every solve path must satisfy the same
 * physics contract on randomized meshes, the new orderings must
 * agree with the seed's lexicographic reference at solver tolerance,
 * the parallel red-black path must be bit-identical at every thread
 * count, and the new default path is pinned by %.17g goldens.  The
 * direct transient step must satisfy its implicit KCL at every node
 * on randomized meshes, storage and step sizes.
 *
 * Carries the ctest label "solver" (see CMakeLists) so CI lanes can
 * run it explicitly with `ctest -L solver`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "exec/ExecPool.hh"
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
buildMesh(const RandomProblem &p, PdnSolverKind kind)
{
    PdnMeshConfig cfg = p.cfg;
    cfg.solver = kind;
    PdnMesh mesh(cfg);
    for (const auto &ld : p.loads)
        mesh.addBlockLoad(ld.row0, ld.col0, ld.rows, ld.cols,
                          ld.amps);
    return mesh;
}

} // namespace

TEST(SolverProperty, ResidualBelowToleranceOnRandomMeshes)
{
    // Physics contract: every solve path reports convergence and the
    // true KCL residual of its answer is at solver-tolerance scale.
    // The sweep paths gate on the update norm |diag dV| rather than
    // the true residual, so allow one order of magnitude of slack --
    // on amp-scale loads, 1e-6 A of KCL imbalance is noise.
    std::mt19937_64 rng(20250808);
    const PdnSolverKind kinds[] = {PdnSolverKind::Lexicographic,
                                   PdnSolverKind::RedBlack,
                                   PdnSolverKind::Multigrid,
                                   PdnSolverKind::Auto};
    for (int trial = 0; trial < 8; ++trial) {
        const RandomProblem p = randomProblem(rng);
        for (PdnSolverKind kind : kinds) {
            PdnMesh mesh = buildMesh(p, kind);
            const PdnSolution sol = mesh.solve();
            EXPECT_TRUE(sol.converged)
                << "trial " << trial << " kind "
                << static_cast<int>(kind);
            EXPECT_LT(mesh.kclResidualMax(sol),
                      p.cfg.tolerance * 10.0)
                << "trial " << trial << " kind "
                << static_cast<int>(kind);
        }
    }
}

TEST(SolverProperty, RedBlackAgreesWithLexicographic)
{
    // Orderings converge to the same fixed point: the red-black
    // sweeps and the seed's lexicographic sweeps solve the same
    // linear system, so at tolerance their voltage maps agree to
    // residual/conductance scale.
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 6; ++trial) {
        const RandomProblem p = randomProblem(rng);
        const PdnSolution lex =
            buildMesh(p, PdnSolverKind::Lexicographic).solve();
        const PdnSolution rb =
            buildMesh(p, PdnSolverKind::RedBlack).solve();
        ASSERT_EQ(lex.voltage.size(), rb.voltage.size());
        for (size_t i = 0; i < lex.voltage.size(); ++i)
            EXPECT_NEAR(lex.voltage[i], rb.voltage[i], 1e-6)
                << "trial " << trial << " node " << i;
    }
}

TEST(SolverProperty, MultigridAgreesWithDirectSorFixedPoint)
{
    // The V-cycle is only a faster route to the same fixed point:
    // multigrid answers must match direct red-black SOR at
    // tolerance on every randomized problem.
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 6; ++trial) {
        const RandomProblem p = randomProblem(rng);
        const PdnSolution mg =
            buildMesh(p, PdnSolverKind::Multigrid).solve();
        const PdnSolution rb =
            buildMesh(p, PdnSolverKind::RedBlack).solve();
        ASSERT_EQ(mg.voltage.size(), rb.voltage.size());
        for (size_t i = 0; i < mg.voltage.size(); ++i)
            EXPECT_NEAR(mg.voltage[i], rb.voltage[i], 1e-6)
                << "trial " << trial << " node " << i;
    }
}

TEST(SolverProperty, MultigridConvergesInFewCycles)
{
    // The point of the V-cycle: cold-solve cost that stays O(10)
    // cycles as the mesh grows, where plain SOR needs hundreds of
    // sweeps.  48 is the solver default size.
    PdnMeshConfig cfg;
    cfg.size = 48;
    cfg.solver = PdnSolverKind::Multigrid;
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(8, 8, 24, 24, 3.0);
    const PdnSolution mg = mesh.solve();
    EXPECT_TRUE(mg.converged);
    EXPECT_LE(mg.iterations, 30);

    PdnMeshConfig rbCfg = cfg;
    rbCfg.solver = PdnSolverKind::RedBlack;
    PdnMesh rbMesh(rbCfg);
    rbMesh.addBlockLoad(8, 8, 24, 24, 3.0);
    const PdnSolution rb = rbMesh.solve();
    EXPECT_TRUE(rb.converged);
    EXPECT_GT(rb.iterations, mg.iterations * 4);
}

TEST(SolverProperty, WarmStartNeverWorseThanCold)
{
    // Warm-started red-black re-solves after a perturbation must
    // never need more sweeps than the equivalent cold solve -- the
    // property the droop backends' per-window loop is built on.
    std::mt19937_64 rng(1234);
    std::uniform_real_distribution<double> frac(0.001, 0.2);
    for (int trial = 0; trial < 6; ++trial) {
        const RandomProblem p = randomProblem(rng);
        PdnMesh mesh = buildMesh(p, PdnSolverKind::RedBlack);
        const PdnSolution base = mesh.solve();
        // Perturb the first load by 0.1%..20% and re-solve.
        const auto &ld = p.loads.front();
        mesh.addBlockLoad(ld.row0, ld.col0, ld.rows, ld.cols,
                          ld.amps * frac(rng));
        const PdnSolution cold = mesh.solve();
        const PdnSolution warm = mesh.solve(&base);
        EXPECT_LE(warm.iterations, cold.iterations)
            << "trial " << trial;
        EXPECT_TRUE(warm.converged);
    }
}

TEST(SolverProperty, ThreadCountBitIdentity)
{
    // The parallel red-black path must produce bit-identical voltage
    // maps at every thread count: half-sweeps only read the opposite
    // colour, so row chunking cannot change any node's arithmetic,
    // and the residual is a fixed-order max-reduction.  48 exceeds
    // the solver's internal parallel threshold.
    for (PdnSolverKind kind :
         {PdnSolverKind::RedBlack, PdnSolverKind::Multigrid}) {
        PdnMeshConfig cfg;
        cfg.size = 48;
        cfg.solver = kind;
        PdnMesh mesh(cfg);
        mesh.addBlockLoad(4, 4, 20, 20, 2.5);
        mesh.addBlockLoad(30, 28, 10, 12, 1.25);

        const PdnSolution serial = mesh.solve();
        for (int threads : {1, 2, 4}) {
            aim::exec::ExecPool pool(threads);
            const PdnSolution par = mesh.solve(nullptr, &pool);
            ASSERT_EQ(par.voltage.size(), serial.voltage.size());
            for (size_t i = 0; i < par.voltage.size(); ++i)
                ASSERT_EQ(par.voltage[i], serial.voltage[i])
                    << "kind " << static_cast<int>(kind)
                    << " threads " << threads << " node " << i;
            EXPECT_EQ(par.iterations, serial.iterations);
            EXPECT_EQ(par.residual, serial.residual);
        }
    }
}

TEST(SolverProperty, TransientStepIsRbDcSolveWithoutStorage)
{
    // With C = L = 0 the backward-Euler step and the warm-started DC
    // solve are the same sweep kernel on the same arrays -- the
    // voltages must match bit for bit, not just within tolerance.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(3, 3, 8, 8, 1.75);
    const PdnSolution dc = mesh.solve();

    PdnTransientState state = mesh.transientInit(dc);
    mesh.addBlockLoad(3, 3, 8, 8, 0.4); // step the demand
    mesh.stepTransient(1e-9, state);
    const PdnSolution warm = mesh.solve(&dc);

    ASSERT_EQ(state.sol.voltage.size(), warm.voltage.size());
    for (size_t i = 0; i < warm.voltage.size(); ++i)
        ASSERT_EQ(state.sol.voltage[i], warm.voltage[i]);
    EXPECT_EQ(state.sol.iterations, warm.iterations);
    EXPECT_EQ(state.sol.bumpCurrentA, warm.bumpCurrentA);
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

TEST(SolverProperty, CappedSolveReportsNotConvergedThenRecovers)
{
    // The shared convergence contract the droop backends' quiet-
    // window guard relies on: a solve stopped by its iteration cap
    // says so via PdnSolution::converged, and repeated warm
    // re-solves from that state eventually reach tolerance.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    cfg.solver = PdnSolverKind::RedBlack;
    cfg.maxIterations = 2;
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(4, 4, 8, 8, 2.0);

    PdnSolution sol = mesh.solve();
    EXPECT_FALSE(sol.converged);
    int rounds = 0;
    while (!sol.converged && rounds < 2000) {
        mesh.resolve(sol);
        ++rounds;
    }
    EXPECT_TRUE(sol.converged);
    EXPECT_LT(sol.residual, cfg.tolerance);
}

TEST(SolverProperty, DefaultPathGoldens)
{
    // %.17g goldens for the new default (Auto) path at the solver's
    // default geometry: a cold multigrid solve and a warm red-black
    // re-solve after a perturbation.  Captured from the
    // implementation this suite shipped with; drift here means the
    // default solve path changed physics, not code shape.
    PdnMeshConfig cfg; // size 48, Auto
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(6, 6, 16, 16, 2.0);
    mesh.addBlockLoad(30, 10, 8, 24, 1.0);
    const PdnSolution cold = mesh.solve();
    EXPECT_TRUE(cold.converged);
    EXPECT_EQ(cold.iterations, 8); // V-cycles, not sweeps
    EXPECT_DOUBLE_EQ(cold.worstDropMv(cfg.vdd),
                     4.8319288024731843);
    EXPECT_DOUBLE_EQ(cold.meanDropMv(cfg.vdd),
                     1.0637271317515458);
    EXPECT_DOUBLE_EQ(cold.bumpCurrentA, 2.9999993531443794);
    EXPECT_DOUBLE_EQ(cold.bumpVoltage, 0.74947916677896775);

    PdnMeshConfig rcfg = cfg;
    rcfg.size = 24;
    rcfg.bumpPitch = 6;
    PdnMesh small(rcfg);
    small.addBlockLoad(4, 4, 10, 10, 1.5);
    const PdnSolution base = small.solve();
    small.addBlockLoad(4, 4, 10, 10, 0.05);
    const PdnSolution warm = small.solve(&base);
    EXPECT_TRUE(warm.converged);
    EXPECT_DOUBLE_EQ(warm.worstDropMv(rcfg.vdd),
                     6.6890204496607986);
    EXPECT_DOUBLE_EQ(warm.bumpCurrentA, 1.54999991411916);
    EXPECT_EQ(warm.iterations, 90); // red-black sweeps
}
