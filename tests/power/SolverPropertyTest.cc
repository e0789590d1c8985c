/**
 * @file
 * Property suite of the PDN solver (power/PdnMesh): the one direct
 * solve must satisfy KCL at every node and deliver exactly the load
 * through the bumps on randomized meshes; a step without storage
 * elements must be the DC solve bit for bit; the storage step must
 * satisfy its implicit backward-Euler KCL on randomized meshes,
 * storage and step sizes; the block solve must agree with a banded
 * Cholesky reference on randomized meshes and give every thread
 * sharing one factor the serial result bit for bit; and the default
 * geometry is pinned by %.17g goldens.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>

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

/**
 * The reference solve: a banded Cholesky factor of the same
 * backward-Euler matrix (half-bandwidth n in row-major node order)
 * and its forward and back substitutions.  It shares no code with
 * the block elimination under test, only the matrix definition.
 */
class BandedReference
{
  public:
    BandedReference(const PdnMeshConfig &cfg, double dt) : n(cfg.size)
    {
        const double g = cfg.sheetConductance;
        const double gb = cfg.bumpConductance;
        const double gc = cfg.decapFarad / dt;
        const double l_dt = cfg.bumpInductanceH / dt;
        const double gbe = l_dt == 0.0 ? gb : 1.0 / (1.0 / gb + l_dt);
        // Row i holds columns i-n .. i: the north link at 0, the west
        // link at n - 1 and the diagonal at n.
        const long w = n + 1;
        const long nn = static_cast<long>(n) * n;
        band.assign(static_cast<size_t>(nn * w), 0.0);
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c) {
                double *row =
                    band.data() + (static_cast<long>(r) * n + c) * w;
                const int links =
                    (r > 0) + (r + 1 < n) + (c > 0) + (c + 1 < n);
                row[n] = links * g + gc;
                if (r % cfg.bumpPitch == 0 && c % cfg.bumpPitch == 0)
                    row[n] += gbe;
                if (c > 0)
                    row[n - 1] = -g;
                if (r > 0)
                    row[0] = -g;
            }
        // L[i][j] = (A[i][j] - sum_k L[i][k] L[j][k]) / L[j][j] over
        // the band; the diagonal slot keeps 1 / L[i][i].
        for (long i = 0; i < nn; ++i) {
            double *li = band.data() + i * w;
            const long j0 = std::max(0L, i - n);
            for (long j = j0; j <= i; ++j) {
                const double *lj = band.data() + j * w;
                double s = li[j - i + n];
                for (long k = j0; k < j; ++k)
                    s -= li[k - i + n] * lj[k - j + n];
                if (j < i)
                    li[j - i + n] = s * lj[n];
                else
                    li[n] = 1.0 / std::sqrt(s);
            }
        }
    }

    /** Overwrite @p x (n^2 values) with the system's solution. */
    void
    solve(std::vector<double> &x) const
    {
        const long w = n + 1;
        const long nn = static_cast<long>(n) * n;
        for (long i = 0; i < nn; ++i) {
            const double *li = band.data() + i * w;
            double s = x[i];
            for (long j = std::max(0L, i - n); j < i; ++j)
                s -= li[j - i + n] * x[j];
            x[i] = s * li[n];
        }
        for (long i = nn - 1; i >= 0; --i) {
            const double *li = band.data() + i * w;
            x[i] *= li[n];
            for (long j = std::max(0L, i - n); j < i; ++j)
                x[j] -= li[j - i + n] * x[i];
        }
    }

  private:
    int n;
    std::vector<double> band;
};

/**
 * The right-hand side PdnMesh builds for one step from @p v (the
 * previous voltages) and @p bumpA (the previous bump currents, row
 * major; empty for DC): gc V_prev - I_load at every node, plus
 * gbe (Vdd + (L/dt) I_prev) at each bump.
 */
std::vector<double>
stepRhs(const PdnMesh &mesh, double dt, const std::vector<double> &load,
        const std::vector<double> &v, const std::vector<double> &bumpA)
{
    const PdnMeshConfig &cfg = mesh.config();
    const double gc = cfg.decapFarad / dt;
    const double l_dt = cfg.bumpInductanceH / dt;
    const double gb = cfg.bumpConductance;
    const double gbe = l_dt == 0.0 ? gb : 1.0 / (1.0 / gb + l_dt);
    std::vector<double> b(load.size());
    size_t k = 0;
    for (int r = 0; r < cfg.size; ++r)
        for (int c = 0; c < cfg.size; ++c) {
            const size_t i = mesh.nodeIndex(r, c);
            b[i] = gc * v[i] - load[i];
            if (mesh.isBump(r, c)) {
                b[i] += gbe * (cfg.vdd +
                               (bumpA.empty() ? 0.0 : l_dt * bumpA[k]));
                ++k;
            }
        }
    return b;
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

TEST(SolverProperty, BlockSolveMatchesBandedReference)
{
    // The block elimination against the banded Cholesky it replaced,
    // on randomized meshes of every size class the solver meets (odd
    // sizes and sizes off the 8-node register tile included): the
    // DC solve, then transient steps with decap and bump L at
    // several dt, each node within 1e-11 relative.
    std::mt19937_64 rng(20261020);
    std::uniform_real_distribution<double> sheet(8.0, 60.0);
    std::uniform_real_distribution<double> bump(30.0, 200.0);
    std::uniform_real_distribution<double> amps(0.05, 1.5);
    std::uniform_real_distribution<double> decap_nf(1.0, 40.0);
    std::uniform_real_distribution<double> bump_ph(0.0, 400.0);
    const double dts[] = {0.5e-9, 1e-9, 2e-9, 4e-9};
    for (int n : {4, 5, 12, 16, 24, 33, 48})
        for (int trial = 0; trial < 2; ++trial) {
            PdnMeshConfig cfg;
            cfg.size = n;
            cfg.bumpPitch = 1 + static_cast<int>(rng() % 7);
            cfg.sheetConductance = sheet(rng);
            cfg.bumpConductance = bump(rng);
            cfg.decapFarad = decap_nf(rng) * 1e-9;
            cfg.bumpInductanceH = bump_ph(rng) * 1e-12;
            PdnMesh mesh(cfg);
            std::vector<double> load(static_cast<size_t>(n) * n, 0.0);
            auto add_loads = [&](double scale) {
                for (int l = 0; l < 3; ++l) {
                    const int rows = 1 + static_cast<int>(rng() % (n / 2));
                    const int cols = 1 + static_cast<int>(rng() % (n / 2));
                    const int r0 = static_cast<int>(rng() % (n - rows));
                    const int c0 = static_cast<int>(rng() % (n - cols));
                    const double a = scale * amps(rng);
                    mesh.addBlockLoad(r0, c0, rows, cols, a);
                    for (int r = r0; r < r0 + rows; ++r)
                        for (int c = c0; c < c0 + cols; ++c)
                            load[mesh.nodeIndex(r, c)] +=
                                a / (rows * cols);
                }
            };
            auto expect_close = [&](const std::vector<double> &got,
                                    const std::vector<double> &ref,
                                    const char *what) {
                for (size_t i = 0; i < ref.size(); ++i)
                    ASSERT_NEAR(got[i], ref[i], 1e-11 * std::fabs(ref[i]))
                        << what << " size " << n << " pitch "
                        << cfg.bumpPitch << " node " << i;
            };

            add_loads(1.0);
            const PdnSolution dc = mesh.solve();
            std::vector<double> ref =
                stepRhs(mesh, kPdnDcStep, load, dc.voltage, {});
            BandedReference(cfg, kPdnDcStep).solve(ref);
            expect_close(dc.voltage, ref, "DC");

            PdnTransientState state = mesh.transientInit(dc);
            for (double dt : dts) {
                add_loads(0.3);
                ref = stepRhs(mesh, dt, load, state.sol.voltage,
                              state.bumpA);
                BandedReference(cfg, dt).solve(ref);
                mesh.stepTransient(dt, state);
                expect_close(state.sol.voltage, ref, "step");
            }
        }
}

TEST(SolverProperty, SharedFactorSolvesConcurrently)
{
    // One immutable factor, four threads, four right-hand sides:
    // every thread's repeated solves equal the serial solve bit for
    // bit (and the TSan lane sees only reads of the factor).
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    cfg.decapFarad = 20e-9;
    cfg.bumpInductanceH = 200e-12;
    const PdnStepFactor factor(cfg, 1e-9);

    constexpr int kThreads = 4;
    const size_t nodes = static_cast<size_t>(cfg.size) * cfg.size;
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> rhs(-2.0, 20.0);
    std::vector<std::vector<double>> b(kThreads), serial(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        for (size_t i = 0; i < nodes; ++i)
            b[t].push_back(rhs(rng));
        serial[t] = b[t];
        factor.solveInPlace(serial[t].data());
    }

    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            for (int rep = 0; rep < 200; ++rep) {
                std::vector<double> x = b[t];
                factor.solveInPlace(x.data());
                mismatches[t] += x != serial[t];
            }
        });
    for (std::thread &w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
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
    EXPECT_DOUBLE_EQ(big.worstDropMv(cfg.vdd), 4.8319288528256843);
    EXPECT_DOUBLE_EQ(big.meanDropMv(cfg.vdd), 1.0637275001409103);
    EXPECT_DOUBLE_EQ(big.bumpCurrentA, 3.000000000000739);
    EXPECT_DOUBLE_EQ(big.bumpVoltage, 0.74947916666666647);

    PdnMeshConfig rcfg = cfg;
    rcfg.size = 24;
    rcfg.bumpPitch = 6;
    PdnMesh small(rcfg);
    small.addBlockLoad(4, 4, 10, 10, 1.5);
    small.solve();
    small.addBlockLoad(4, 4, 10, 10, 0.05);
    const PdnSolution stepped = small.solve();
    EXPECT_DOUBLE_EQ(stepped.worstDropMv(rcfg.vdd),
                     6.6890206669892871);
    EXPECT_DOUBLE_EQ(stepped.bumpCurrentA, 1.5500000000003322);
}
