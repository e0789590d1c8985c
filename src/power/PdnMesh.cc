#include "power/PdnMesh.hh"

#include <algorithm>
#include <cmath>

#include "exec/ExecPool.hh"
#include "util/Logging.hh"

namespace aim::power
{

namespace
{

// Multigrid smoothing constants.  The high SOR omega tuned for
// stand-alone sweeps (cfg.omega, default 1.88) is a poor smoother --
// it trades smoothing for asymptotic convergence -- so every level of
// the V-cycle relaxes with a dedicated moderate omega instead.
constexpr double kMgOmega = 1.25;
constexpr int kMgPreSweeps = 2;
constexpr int kMgPostSweeps = 2;
/** Stop coarsening at this size; the coarsest grid is swept out. */
constexpr int kMgCoarsestSize = 8;
/** Sweep cap for the coarsest-level solve (tiny grids, cheap). */
constexpr int kMgCoarseSweeps = 400;

// Parallel red-black sweeps: rows are chunked across the pool, one
// max-residual slot per chunk, reduced in fixed slot order.  Below
// kParMinSize a half-sweep is too small to win anything from fan-out.
constexpr int kParMinSize = 32;
constexpr int kChunkRows = 8;
constexpr int kMaxChunks = 64;

/**
 * A 5-point-stencil sweep problem: solve (D - g N) v = src by SOR,
 * where D is the per-node diagonal, N the grid adjacency and g the
 * uniform sheet conductance.  invW = omega / D and oneMinusOmega
 * bake the relaxation into two multiplies per node -- the kernels
 * run division-free.  Both sweep paths (red-black DC solves and
 * multigrid smoothing on every level) describe themselves as one of
 * these.
 */
struct SweepGrid
{
    int n = 0;
    double g = 0.0;
    double oneMinusOmega = 0.0;
    const double *src = nullptr;
    const double *diag = nullptr;
    const double *invW = nullptr;
};

/** Boundary-general SOR update of one node. */
inline void
updateNode(const SweepGrid &gr, double *v, int r, int c,
           double &residual)
{
    const int n = gr.n;
    const size_t i = static_cast<size_t>(r) * n + c;
    double isum = gr.src[i];
    if (r > 0)
        isum += gr.g * v[i - n];
    if (r + 1 < n)
        isum += gr.g * v[i + n];
    if (c > 0)
        isum += gr.g * v[i - 1];
    if (c + 1 < n)
        isum += gr.g * v[i + 1];
    const double v_old = v[i];
    const double v_new =
        gr.oneMinusOmega * v_old + isum * gr.invW[i];
    residual =
        std::max(residual, std::fabs(gr.diag[i] * (v_new - v_old)));
    v[i] = v_new;
}

/**
 * One half-sweep over rows [r0, r1): update every node of @p color
 * (checkerboard colour (r+c)&1).  Each update reads only the
 * opposite colour, so updates within a half-sweep are independent --
 * any row partition produces identical bits, which is what makes the
 * parallel path deterministic.  Interior rows run a branch-free
 * stride-2 fast path; boundary rows/columns take updateNode.
 * Returns the max |diag * dV| residual over the nodes touched.
 */
double
halfSweep(const SweepGrid &gr, double *v, int color, int r0, int r1)
{
    const int n = gr.n;
    const double g = gr.g;
    double residual = 0.0;
    for (int r = r0; r < r1; ++r) {
        const int c_start = (r & 1) ^ color;
        if (r == 0 || r + 1 == n) {
            for (int c = c_start; c < n; c += 2)
                updateNode(gr, v, r, c, residual);
            continue;
        }
        double *row = v + static_cast<size_t>(r) * n;
        const double *up = row - n;
        const double *down = row + n;
        const double *s = gr.src + static_cast<size_t>(r) * n;
        const double *d = gr.diag + static_cast<size_t>(r) * n;
        const double *w = gr.invW + static_cast<size_t>(r) * n;
        int c = c_start;
        if (c == 0) {
            updateNode(gr, v, r, 0, residual);
            c += 2;
        }
        for (; c < n - 1; c += 2) {
            const double isum = s[c] + g * ((up[c] + down[c]) +
                                            (row[c - 1] + row[c + 1]));
            const double v_old = row[c];
            const double v_new =
                gr.oneMinusOmega * v_old + isum * w[c];
            residual = std::max(residual,
                                std::fabs(d[c] * (v_new - v_old)));
            row[c] = v_new;
        }
        if (c == n - 1)
            updateNode(gr, v, r, c, residual);
    }
    return residual;
}

/** Parallel half-sweep: rows chunked over the pool, fixed-order
 *  max-reduction of per-chunk residual slots. */
double
parHalfSweep(const SweepGrid &gr, double *v, int color,
             exec::ExecPool *pool)
{
    const int n = gr.n;
    int chunk_rows = kChunkRows;
    int chunks = (n + chunk_rows - 1) / chunk_rows;
    if (chunks > kMaxChunks) {
        chunk_rows = (n + kMaxChunks - 1) / kMaxChunks;
        chunks = (n + chunk_rows - 1) / chunk_rows;
    }
    double slots[kMaxChunks];
    pool->parallelFor(chunks, [&](long k) {
        const int r0 = static_cast<int>(k) * chunk_rows;
        const int r1 = std::min(n, r0 + chunk_rows);
        slots[k] = halfSweep(gr, v, color, r0, r1);
    });
    double residual = 0.0;
    for (int k = 0; k < chunks; ++k)
        residual = std::max(residual, slots[k]);
    return residual;
}

/** One full red-black sweep (red then black half-sweeps). */
double
sweepOnce(const SweepGrid &gr, double *v, exec::ExecPool *pool)
{
    if (pool) {
        const double res = parHalfSweep(gr, v, 0, pool);
        return std::max(res, parHalfSweep(gr, v, 1, pool));
    }
    const double res = halfSweep(gr, v, 0, 0, gr.n);
    return std::max(res, halfSweep(gr, v, 1, 0, gr.n));
}

/**
 * Red-black SOR to convergence: sweep until the residual drops under
 * @p tol or @p maxIter sweeps have run.  The loop shape (and hence
 * the reported iteration count: the index of the converging sweep)
 * matches the seed's lexicographic solver.
 */
void
runSweeps(const SweepGrid &gr, double *v, exec::ExecPool *pool,
          int maxIter, double tol, int &iterOut, double &residOut,
          bool &convOut)
{
    exec::ExecPool *par =
        (pool && pool->threads() > 1 && gr.n >= kParMinSize) ? pool
                                                             : nullptr;
    double residual = 0.0;
    int iter = 0;
    for (; iter < maxIter; ++iter) {
        residual = sweepOnce(gr, v, par);
        if (residual < tol)
            break;
    }
    iterOut = iter;
    residOut = residual;
    convOut = residual < tol;
}

/**
 * Max |KCL residual| of v under (D - g N) v = src, in amps; the
 * per-node residual also lands in @p rf unless it is null.
 */
double
residualMax(int n, double g, const double *v, const double *src,
            const double *diag, double *rf = nullptr)
{
    double worst = 0.0;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
            const size_t i = static_cast<size_t>(r) * n + c;
            double acc = src[i] - diag[i] * v[i];
            if (r > 0)
                acc += g * v[i - n];
            if (r + 1 < n)
                acc += g * v[i + n];
            if (c > 0)
                acc += g * v[i - 1];
            if (c + 1 < n)
                acc += g * v[i + 1];
            if (rf)
                rf[i] = acc;
            worst = std::max(worst, std::fabs(acc));
        }
    return worst;
}

/**
 * Dot product of two contiguous runs of @p len values, in four
 * partial sums combined in a fixed order (deterministic, and free of
 * the single-accumulator latency chain).
 */
inline double
dot(const double *a, const double *b, long len)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    long k = 0;
    for (; k + 4 <= len; k += 4) {
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
    }
    for (; k < len; ++k)
        s0 += a[k] * b[k];
    return (s0 + s1) + (s2 + s3);
}

} // namespace

double
PdnSolution::worstDropMv(double vdd) const
{
    double worst = 0.0;
    for (double v : voltage)
        worst = std::max(worst, (vdd - v) * 1000.0);
    return worst;
}

double
PdnSolution::meanDropMv(double vdd) const
{
    if (voltage.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : voltage)
        acc += (vdd - v) * 1000.0;
    return acc / static_cast<double>(voltage.size());
}

double
PdnSolution::dropAtMv(int row, int col, double vdd) const
{
    return (vdd - voltage.at(static_cast<size_t>(row) * size + col)) *
           1000.0;
}

std::string
PdnSolution::renderHeatMap(double vdd, double scaleMv) const
{
    static const char glyphs[] = " .:-=+*#%@";
    std::string out;
    for (int r = 0; r < size; ++r) {
        for (int c = 0; c < size; ++c) {
            const double d = dropAtMv(r, c, vdd);
            int idx = static_cast<int>(d / scaleMv * 9.0);
            idx = std::clamp(idx, 0, 9);
            out += glyphs[idx];
        }
        out += '\n';
    }
    return out;
}

PdnMesh::PdnMesh(const PdnMeshConfig &cfg)
    : cfg(cfg),
      loadA(static_cast<size_t>(cfg.size) * cfg.size, 0.0)
{
    aim_assert(cfg.size >= 4, "mesh too small");
    aim_assert(cfg.bumpPitch >= 1, "bump pitch must be positive");
    aim_assert(cfg.omega > 0.0 && cfg.omega < 2.0,
               "SOR omega out of (0, 2)");
    aim_assert(cfg.decapFarad >= 0.0, "negative decap");
    aim_assert(cfg.bumpInductanceH >= 0.0,
               "negative bump inductance");

    const int n = cfg.size;
    const size_t nn = static_cast<size_t>(n) * n;
    const double g = cfg.sheetConductance;
    dcDiag.assign(nn, 0.0);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
            double gsum = 0.0;
            if (r > 0)
                gsum += g;
            if (r + 1 < n)
                gsum += g;
            if (c > 0)
                gsum += g;
            if (c + 1 < n)
                gsum += g;
            dcDiag[static_cast<size_t>(r) * n + c] = gsum;
            if (isBump(r, c))
                bumpIdx.push_back(static_cast<int>(
                    static_cast<size_t>(r) * n + c));
        }
    for (int b : bumpIdx)
        dcDiag[b] += cfg.bumpConductance;
    dcInvW.resize(nn);
    for (size_t i = 0; i < nn; ++i)
        dcInvW[i] = cfg.omega / dcDiag[i];
    srcScratch.assign(nn, 0.0);

    if (cfg.solver == PdnSolverKind::Auto ||
        cfg.solver == PdnSolverKind::Multigrid)
        buildMultigrid();
}

void
PdnMesh::clearLoads()
{
    std::fill(loadA.begin(), loadA.end(), 0.0);
}

void
PdnMesh::addBlockLoad(int row0, int col0, int rows, int cols,
                      double currentA)
{
    aim_assert(row0 >= 0 && col0 >= 0 && rows > 0 && cols > 0 &&
                   row0 + rows <= cfg.size && col0 + cols <= cfg.size,
               "block footprint outside the mesh");
    const double per_node =
        currentA / (static_cast<double>(rows) * cols);
    for (int r = row0; r < row0 + rows; ++r)
        for (int c = col0; c < col0 + cols; ++c)
            loadA[static_cast<size_t>(r) * cfg.size + c] += per_node;
}

void
PdnMesh::applyLoadDeltas(const std::vector<PdnLoadDelta> &deltas)
{
    const long nn = static_cast<long>(loadA.size());
    for (const PdnLoadDelta &d : deltas) {
        aim_assert(d.node >= 0 && d.node < nn,
                   "load delta outside the mesh");
        loadA[d.node] += d.amps;
    }
}

bool
PdnMesh::isBump(int row, int col) const
{
    return row % cfg.bumpPitch == 0 && col % cfg.bumpPitch == 0;
}

void
PdnMesh::buildDcSource() const
{
    const size_t nn = loadA.size();
    for (size_t i = 0; i < nn; ++i)
        srcScratch[i] = -loadA[i];
    const double inj = cfg.bumpConductance * cfg.vdd;
    for (int b : bumpIdx)
        srcScratch[b] += inj;
}

void
PdnMesh::finishSolution(PdnSolution &sol) const
{
    // Bump observables for Figure 17 (row-major bump order, same as
    // the seed's isBump scan).
    const double gb = cfg.bumpConductance;
    double current = 0.0;
    double v_acc = 0.0;
    for (int b : bumpIdx) {
        const double v = sol.voltage[b];
        current += gb * (cfg.vdd - v);
        v_acc += v;
    }
    sol.bumpCurrentA = current;
    sol.bumpVoltage =
        bumpIdx.empty()
            ? cfg.vdd
            : v_acc / static_cast<double>(bumpIdx.size());
}

PdnSolution
PdnMesh::solve() const
{
    return solve(nullptr, nullptr);
}

PdnSolution
PdnMesh::solve(const PdnSolution *warm_start) const
{
    return solve(warm_start, nullptr);
}

PdnSolution
PdnMesh::solve(const PdnSolution *warm_start,
               exec::ExecPool *pool) const
{
    PdnSolution sol;
    if (warm_start) {
        sol.size = warm_start->size;
        sol.voltage = warm_start->voltage;
    }
    resolve(sol, pool);
    return sol;
}

void
PdnMesh::resolve(PdnSolution &sol, exec::ExecPool *pool) const
{
    const int n = cfg.size;
    const bool warm = sol.size == n &&
                      sol.voltage.size() ==
                          static_cast<size_t>(n) * n;
    if (!warm) {
        sol.size = n;
        sol.voltage.assign(static_cast<size_t>(n) * n, cfg.vdd);
    }
    PdnSolverKind kind = cfg.solver;
    if (kind == PdnSolverKind::Auto)
        kind = (!warm || n > kRbMaxAutoSize)
                   ? PdnSolverKind::Multigrid
                   : PdnSolverKind::RedBlack;
    switch (kind) {
    case PdnSolverKind::Lexicographic:
        solveLexicographic(sol);
        break;
    case PdnSolverKind::RedBlack:
        solveRedBlack(sol, pool);
        break;
    default:
        solveMultigrid(sol, pool);
        break;
    }
    finishSolution(sol);
}

void
PdnMesh::solveRedBlack(PdnSolution &sol, exec::ExecPool *pool) const
{
    buildDcSource();
    const SweepGrid gr{cfg.size,
                       cfg.sheetConductance,
                       1.0 - cfg.omega,
                       srcScratch.data(),
                       dcDiag.data(),
                       dcInvW.data()};
    runSweeps(gr, sol.voltage.data(), pool, cfg.maxIterations,
              cfg.tolerance, sol.iterations, sol.residual,
              sol.converged);
}

void
PdnMesh::solveLexicographic(PdnSolution &sol) const
{
    const int n = cfg.size;
    const double g = cfg.sheetConductance;
    const double gb = cfg.bumpConductance;

    // The seed's single-order SOR, kept bit-for-bit as the reference
    // implementation: V_i = (sum_j g V_j + gb VDD [bump] - I_i) /
    // G_i.  The interior of the grid (all four neighbours present)
    // is the bulk of the nodes and runs without boundary branches;
    // edge nodes take the general path.  Accumulation order is kept
    // identical to the general path, so the fast path changes no
    // bits -- only branch misprediction and index arithmetic.
    const double g4 = ((g + g) + g) + g;
    double *v = sol.voltage.data();
    const double *load = loadA.data();
    auto update = [&](int r, int c, double &residual) {
        double gsum = 0.0;
        double isum = -load[static_cast<size_t>(r) * n + c];
        if (r > 0) {
            gsum += g;
            isum += g * v[static_cast<size_t>(r - 1) * n + c];
        }
        if (r + 1 < n) {
            gsum += g;
            isum += g * v[static_cast<size_t>(r + 1) * n + c];
        }
        if (c > 0) {
            gsum += g;
            isum += g * v[static_cast<size_t>(r) * n + c - 1];
        }
        if (c + 1 < n) {
            gsum += g;
            isum += g * v[static_cast<size_t>(r) * n + c + 1];
        }
        if (isBump(r, c)) {
            gsum += gb;
            isum += gb * cfg.vdd;
        }
        double &v_old = v[static_cast<size_t>(r) * n + c];
        const double v_sor =
            v_old + cfg.omega * (isum / gsum - v_old);
        residual =
            std::max(residual, std::fabs(gsum * (v_sor - v_old)));
        v_old = v_sor;
    };
    double residual = 0.0;
    int iter = 0;
    for (; iter < cfg.maxIterations; ++iter) {
        residual = 0.0;
        for (int r = 0; r < n; ++r) {
            const bool interior_row = r > 0 && r + 1 < n;
            if (!interior_row) {
                for (int c = 0; c < n; ++c)
                    update(r, c, residual);
                continue;
            }
            double *row = v + static_cast<size_t>(r) * n;
            const double *up = row - n;
            const double *down = row + n;
            const double *ld = load + static_cast<size_t>(r) * n;
            const bool bump_row = r % cfg.bumpPitch == 0;
            update(r, 0, residual);
            for (int c = 1; c + 1 < n; ++c) {
                const bool bump =
                    bump_row && c % cfg.bumpPitch == 0;
                double isum = -ld[c];
                isum += g * up[c];
                isum += g * down[c];
                isum += g * row[c - 1];
                isum += g * row[c + 1];
                double gsum = g4;
                if (bump) {
                    gsum += gb;
                    isum += gb * cfg.vdd;
                }
                const double v_old = row[c];
                const double v_sor =
                    v_old + cfg.omega * (isum / gsum - v_old);
                residual = std::max(
                    residual, std::fabs(gsum * (v_sor - v_old)));
                row[c] = v_sor;
            }
            update(r, n - 1, residual);
        }
        if (residual < cfg.tolerance)
            break;
    }
    sol.iterations = iter;
    sol.residual = residual;
    sol.converged = residual < cfg.tolerance;
}

void
PdnMesh::buildMultigrid()
{
    const double g = cfg.sheetConductance;
    int n = cfg.size;
    const size_t nn = static_cast<size_t>(n) * n;
    mgInvW0.resize(nn);
    for (size_t i = 0; i < nn; ++i)
        mgInvW0[i] = kMgOmega / dcDiag[i];
    mgRes0.assign(nn, 0.0);

    // The "extra" diagonal -- everything beyond the neighbour links,
    // i.e. the bump-to-supply conductances -- is what grounds the
    // coarse error equations.  Coarsen it Galerkin-style: the
    // diagonal of P^T diag(extra) P, each fine entry scattered onto
    // its coarse interpolants with squared weights (off-diagonal
    // couplings this drops are small and only affect the
    // preconditioner, never the answer -- the outer loop gates on
    // the true fine-grid residual).
    std::vector<double> extra(nn, 0.0);
    for (int b : bumpIdx)
        extra[b] = cfg.bumpConductance;

    while (n > kMgCoarsestSize) {
        const int nc = (n + 1) / 2;
        MgLevel lvl;
        lvl.n = nc;
        lvl.pj0.resize(n);
        lvl.pj1.resize(n);
        lvl.pw0.resize(n);
        lvl.pw1.resize(n);
        // Coarse node J sits on fine node 2J; even fine nodes inject
        // (weight 1), odd ones interpolate their two coarse
        // neighbours (clamped to one at the far edge).
        for (int i = 0; i < n; ++i) {
            if ((i & 1) == 0 || i / 2 + 1 >= nc) {
                lvl.pj0[i] = i / 2;
                lvl.pw0[i] = 1.0;
                lvl.pj1[i] = i / 2;
                lvl.pw1[i] = 0.0;
            } else {
                lvl.pj0[i] = i / 2;
                lvl.pw0[i] = 0.5;
                lvl.pj1[i] = i / 2 + 1;
                lvl.pw1[i] = 0.5;
            }
        }
        const size_t cnn = static_cast<size_t>(nc) * nc;
        std::vector<double> cextra(cnn, 0.0);
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c) {
                const double e = extra[static_cast<size_t>(r) * n + c];
                if (e == 0.0)
                    continue;
                const int jr[2] = {lvl.pj0[r], lvl.pj1[r]};
                const double wr[2] = {lvl.pw0[r], lvl.pw1[r]};
                const int jc[2] = {lvl.pj0[c], lvl.pj1[c]};
                const double wc[2] = {lvl.pw0[c], lvl.pw1[c]};
                for (int a = 0; a < 2; ++a)
                    for (int b = 0; b < 2; ++b) {
                        const double w = wr[a] * wc[b];
                        cextra[static_cast<size_t>(jr[a]) * nc +
                               jc[b]] += e * w * w;
                    }
            }
        // Sheet conductance is scale-invariant in 2-D (a square of
        // sheet is a square of sheet), so neighbour links keep g at
        // every level; only the grid shrinks.
        lvl.diag.resize(cnn);
        lvl.invW.resize(cnn);
        for (int r = 0; r < nc; ++r)
            for (int c = 0; c < nc; ++c) {
                double d = 0.0;
                if (r > 0)
                    d += g;
                if (r + 1 < nc)
                    d += g;
                if (c > 0)
                    d += g;
                if (c + 1 < nc)
                    d += g;
                d += cextra[static_cast<size_t>(r) * nc + c];
                lvl.diag[static_cast<size_t>(r) * nc + c] = d;
                lvl.invW[static_cast<size_t>(r) * nc + c] =
                    kMgOmega / d;
            }
        lvl.v.assign(cnn, 0.0);
        lvl.src.assign(cnn, 0.0);
        lvl.res.assign(cnn, 0.0);
        mg.push_back(std::move(lvl));
        extra = std::move(cextra);
        n = nc;
    }
}

void
PdnMesh::mgVCycle(int lvl, double *v, const double *src,
                  const double *diag, const double *invW, int n,
                  exec::ExecPool *pool) const
{
    const double g = cfg.sheetConductance;
    const SweepGrid gr{n, g, 1.0 - kMgOmega, src, diag, invW};
    exec::ExecPool *par =
        (pool && pool->threads() > 1 && n >= kParMinSize) ? pool
                                                          : nullptr;

    if (lvl == static_cast<int>(mg.size())) {
        // Coarsest grid: cheap enough to sweep to tolerance.
        for (int it = 0; it < kMgCoarseSweeps; ++it)
            if (sweepOnce(gr, v, par) < cfg.tolerance)
                break;
        return;
    }

    for (int s = 0; s < kMgPreSweeps; ++s)
        sweepOnce(gr, v, par);

    // Residual -> restrict -> solve the coarse error equation ->
    // prolong the correction back -> post-smooth.
    double *rf = lvl == 0 ? mgRes0.data() : mg[lvl - 1].res.data();
    residualMax(n, g, v, src, diag, rf);
    MgLevel &cl = mg[lvl];
    const int nc = cl.n;
    std::fill(cl.src.begin(), cl.src.end(), 0.0);
    for (int r = 0; r < n; ++r) {
        const int jr0 = cl.pj0[r], jr1 = cl.pj1[r];
        const double wr0 = cl.pw0[r], wr1 = cl.pw1[r];
        for (int c = 0; c < n; ++c) {
            const double rv = rf[static_cast<size_t>(r) * n + c];
            const int jc0 = cl.pj0[c], jc1 = cl.pj1[c];
            const double wc0 = cl.pw0[c], wc1 = cl.pw1[c];
            cl.src[static_cast<size_t>(jr0) * nc + jc0] +=
                wr0 * wc0 * rv;
            cl.src[static_cast<size_t>(jr0) * nc + jc1] +=
                wr0 * wc1 * rv;
            cl.src[static_cast<size_t>(jr1) * nc + jc0] +=
                wr1 * wc0 * rv;
            cl.src[static_cast<size_t>(jr1) * nc + jc1] +=
                wr1 * wc1 * rv;
        }
    }
    std::fill(cl.v.begin(), cl.v.end(), 0.0);
    mgVCycle(lvl + 1, cl.v.data(), cl.src.data(), cl.diag.data(),
             cl.invW.data(), nc, pool);
    const double *cv = cl.v.data();
    for (int r = 0; r < n; ++r) {
        const int jr0 = cl.pj0[r], jr1 = cl.pj1[r];
        const double wr0 = cl.pw0[r], wr1 = cl.pw1[r];
        for (int c = 0; c < n; ++c) {
            const int jc0 = cl.pj0[c], jc1 = cl.pj1[c];
            const double wc0 = cl.pw0[c], wc1 = cl.pw1[c];
            v[static_cast<size_t>(r) * n + c] +=
                wr0 * (wc0 * cv[static_cast<size_t>(jr0) * nc + jc0] +
                       wc1 * cv[static_cast<size_t>(jr0) * nc +
                                jc1]) +
                wr1 * (wc0 * cv[static_cast<size_t>(jr1) * nc + jc0] +
                       wc1 * cv[static_cast<size_t>(jr1) * nc + jc1]);
        }
    }

    for (int s = 0; s < kMgPostSweeps; ++s)
        sweepOnce(gr, v, par);
}

void
PdnMesh::solveMultigrid(PdnSolution &sol, exec::ExecPool *pool) const
{
    if (mg.empty()) {
        // Mesh too small to coarsen: plain red-black is the faster
        // cold solve anyway.
        solveRedBlack(sol, pool);
        return;
    }
    buildDcSource();
    const int n = cfg.size;
    const double g = cfg.sheetConductance;
    double *v = sol.voltage.data();
    const double *src = srcScratch.data();
    const double *diag = dcDiag.data();

    double resid = residualMax(n, g, v, src, diag);
    int cycles = 0;
    while (resid >= cfg.tolerance && cycles < cfg.maxIterations) {
        mgVCycle(0, v, src, diag, mgInvW0.data(), n, pool);
        ++cycles;
        resid = residualMax(n, g, v, src, diag);
    }
    sol.iterations = cycles;
    sol.residual = resid;
    sol.converged = resid < cfg.tolerance;
}

double
PdnMesh::kclResidualMax(const PdnSolution &sol) const
{
    const int n = cfg.size;
    aim_assert(sol.size == n &&
                   sol.voltage.size() == static_cast<size_t>(n) * n,
               "solution does not match the mesh");
    buildDcSource();
    return residualMax(n, cfg.sheetConductance, sol.voltage.data(),
                       srcScratch.data(), dcDiag.data());
}

PdnTransientState
PdnMesh::transientInit(const PdnSolution &dc) const
{
    const int n = cfg.size;
    aim_assert(dc.size == n &&
                   dc.voltage.size() == static_cast<size_t>(n) * n,
               "transientInit needs a solution of this mesh");
    PdnTransientState state;
    state.sol = dc;
    state.bumpA.reserve(bumpIdx.size());
    for (int b : bumpIdx)
        state.bumpA.push_back(cfg.bumpConductance *
                              (cfg.vdd - dc.voltage[b]));
    return state;
}

// Backward Euler, branch-implicit:
//   decap     C dV/dt           ->  gc = C/dt into the diagonal,
//                                   gc V_prev into the source
//   bump L    L dI/dt = Vdd - V - I/gb
//             -> I' = gbe (Vdd + (L/dt) I_prev - V'),
//                gbe = 1 / (1/gb + L/dt)
PdnStepFactor::PdnStepFactor(const PdnMeshConfig &cfg, double dt_sec)
    : n(cfg.size), pitch(cfg.bumpPitch), g(cfg.sheetConductance),
      gb(cfg.bumpConductance), decap(cfg.decapFarad),
      bumpL(cfg.bumpInductanceH), dt(dt_sec), gc(decap / dt),
      lDt(bumpL / dt), gbe(lDt == 0.0 ? gb : 1.0 / (1.0 / gb + lDt))
{
    aim_assert(dt_sec > 0.0, "transient step needs dt > 0");

    // The lower band of the matrix: row i holds columns i-n .. i, so
    // the west link sits at n - 1, the north link at 0 and the
    // diagonal at n.
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
            if (r % pitch == 0 && c % pitch == 0)
                row[n] += gbe;
            if (c > 0)
                row[n - 1] = -g;
            if (r > 0)
                row[0] = -g;
        }

    // In-place banded Cholesky, row by row: L[i][j] = (A[i][j] -
    // sum_k L[i][k] L[j][k]) / L[j][j] over the band, and the
    // diagonal slot keeps 1 / L[i][i] so the substitutions multiply.
    for (long i = 0; i < nn; ++i) {
        double *li = band.data() + i * w;
        const long j0 = std::max(0L, i - n);
        for (long j = j0; j <= i; ++j) {
            const double *lj = band.data() + j * w;
            const double s = li[j - i + n] -
                             dot(li + (j0 - i + n), lj + (j0 - j + n),
                                 j - j0);
            if (j < i) {
                li[j - i + n] = s * lj[n];
            } else {
                aim_assert(s > 0.0,
                           "transient step matrix not positive "
                           "definite");
                li[n] = 1.0 / std::sqrt(s);
            }
        }
    }
}

bool
PdnStepFactor::matches(const PdnMeshConfig &cfg, double dt_sec) const
{
    return cfg.size == n && cfg.bumpPitch == pitch &&
           cfg.sheetConductance == g && cfg.bumpConductance == gb &&
           cfg.decapFarad == decap && cfg.bumpInductanceH == bumpL &&
           dt_sec == dt;
}

void
PdnStepFactor::solveInPlace(double *x) const
{
    const long w = n + 1;
    const long nn = static_cast<long>(n) * n;
    // Forward, L y = b: one band-row dot product per unknown.  The
    // previous unknown's term is subtracted last, outside the dot,
    // so the dependency chain from row to row is one multiply-add.
    x[0] *= band[n];
    for (long i = 1; i < nn; ++i) {
        const double *li = band.data() + i * w;
        const long j0 = std::max(0L, i - n);
        const double s =
            x[i] - dot(li + (j0 - i + n), x + j0, i - 1 - j0);
        x[i] = (s - li[n - 1] * x[i - 1]) * li[n];
    }
    // Back, L^T x = y, column-oriented: each solved unknown is
    // subtracted from the n before it through its own band row, so
    // both passes stream the factor contiguously.
    for (long i = nn - 1; i >= 0; --i) {
        const double *li = band.data() + i * w;
        const double xi = x[i] * li[n];
        x[i] = xi;
        const long j0 = std::max(0L, i - n);
        const double *lk = li + (j0 - i + n);
        double *xk = x + j0;
        for (long k = 0; k < i - j0; ++k)
            xk[k] -= lk[k] * xi;
    }
}

void
PdnMesh::stepTransient(double dt_sec, PdnTransientState &state) const
{
    aim_assert(dt_sec > 0.0, "transient step needs dt > 0");
    if (cfg.decapFarad != 0.0 || cfg.bumpInductanceH != 0.0) {
        if (!stepFactor || !stepFactor->matches(cfg, dt_sec))
            stepFactor.emplace(cfg, dt_sec);
        stepTransient(*stepFactor, state);
        return;
    }
    // No storage elements: the step is the warm DC solve of the
    // current loads, and every bump branch carries what its resistor
    // does at the new voltages.
    const int n = cfg.size;
    aim_assert(state.sol.size == n &&
                   state.sol.voltage.size() ==
                       static_cast<size_t>(n) * n,
               "transient state does not match the mesh");
    aim_assert(state.bumpA.size() == bumpIdx.size(),
               "transient state bump count");
    resolve(state.sol);
    const double *v = state.sol.voltage.data();
    for (size_t k = 0; k < bumpIdx.size(); ++k)
        state.bumpA[k] = cfg.bumpConductance * (cfg.vdd - v[bumpIdx[k]]);
}

void
PdnMesh::stepTransient(const PdnStepFactor &factor,
                       PdnTransientState &state) const
{
    const int n = cfg.size;
    aim_assert(factor.matches(cfg, factor.dtSec()),
               "step factor of another mesh");
    aim_assert(state.sol.size == n &&
                   state.sol.voltage.size() ==
                       static_cast<size_t>(n) * n,
               "transient state does not match the mesh");
    aim_assert(state.bumpA.size() == bumpIdx.size(),
               "transient state bump count");

    // The right-hand side overwrites the previous voltages in place:
    // gc V_prev - I_load at every node plus the per-bump history
    // source gbe (Vdd + (L/dt) I_prev); the factor then turns it
    // into the new voltages.
    const double gc = factor.decapS();
    const double gbe = factor.bumpS();
    const double l_dt = factor.lOverDt();
    double *v = state.sol.voltage.data();
    const size_t nn = static_cast<size_t>(n) * n;
    for (size_t i = 0; i < nn; ++i)
        v[i] = gc * v[i] - loadA[i];
    for (size_t k = 0; k < bumpIdx.size(); ++k)
        v[bumpIdx[k]] += gbe * (cfg.vdd + l_dt * state.bumpA[k]);
    factor.solveInPlace(v);
    state.sol.iterations = 0;
    state.sol.residual = 0.0;
    state.sol.converged = true;

    // Branch update + bump observables from the implicit equations,
    // so the reported current is consistent with the step just taken
    // (total bump charge balances load charge plus decap charge).
    double current = 0.0;
    double v_acc = 0.0;
    for (size_t k = 0; k < bumpIdx.size(); ++k) {
        const double node_v = v[bumpIdx[k]];
        const double i_new =
            gbe * (cfg.vdd + l_dt * state.bumpA[k] - node_v);
        state.bumpA[k] = i_new;
        current += i_new;
        v_acc += node_v;
    }
    state.sol.bumpCurrentA = current;
    state.sol.bumpVoltage =
        bumpIdx.empty() ? cfg.vdd
                        : v_acc / static_cast<double>(bumpIdx.size());
}

} // namespace aim::power
