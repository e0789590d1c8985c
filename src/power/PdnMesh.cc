#include "power/PdnMesh.hh"

#include <algorithm>
#include <cmath>

#include "util/Logging.hh"

namespace aim::power
{

namespace
{

/**
 * Fatal on a config whose matrix is not SPD or whose geometry is
 * degenerate: a non-positive sheet or bump conductance leaves the
 * factored matrix singular.
 */
void
validate(const PdnMeshConfig &cfg)
{
    aim_assert(cfg.size >= 4, "mesh too small");
    aim_assert(cfg.bumpPitch >= 1, "bump pitch must be positive");
    aim_assert(cfg.sheetConductance > 0.0,
               "PDN sheet conductance must be positive");
    aim_assert(cfg.bumpConductance > 0.0,
               "PDN bump conductance must be positive");
    aim_assert(cfg.decapFarad >= 0.0, "negative decap");
    aim_assert(cfg.bumpInductanceH >= 0.0,
               "negative bump inductance");
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

// Backward Euler, branch-implicit:
//   decap     C dV/dt           ->  gc = C/dt into the diagonal,
//                                   gc V_prev into the source
//   bump L    L dI/dt = Vdd - V - I/gb
//             -> I' = gbe (Vdd + (L/dt) I_prev - V'),
//                gbe = 1 / (1/gb + L/dt)
// At dt = kPdnDcStep, gc = L/dt = 0 and gbe = gb: the DC system.
PdnStepFactor::PdnStepFactor(const PdnMeshConfig &cfg, double dt_sec)
    : n(cfg.size), pitch(cfg.bumpPitch), g(cfg.sheetConductance),
      gb(cfg.bumpConductance), dt(dt_sec), gc(cfg.decapFarad / dt),
      lDt(cfg.bumpInductanceH / dt),
      gbe(lDt == 0.0 ? gb : 1.0 / (1.0 / gb + lDt))
{
    validate(cfg);
    aim_assert(dt_sec > 0.0, "PDN step needs dt > 0");

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
                           "PDN matrix not positive definite");
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
           cfg.decapFarad / dt_sec == gc &&
           cfg.bumpInductanceH / dt_sec == lDt;
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

PdnMesh::PdnMesh(const PdnMeshConfig &cfg)
    : cfg(cfg),
      loadA(static_cast<size_t>(cfg.size) * cfg.size, 0.0)
{
    validate(cfg);
    for (int r = 0; r < cfg.size; ++r)
        for (int c = 0; c < cfg.size; ++c)
            if (isBump(r, c))
                bumpIdx.push_back(nodeIndex(r, c));
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

const PdnStepFactor &
PdnMesh::ownFactor(double dt_sec) const
{
    if (!factor || !factor->matches(cfg, dt_sec))
        factor.emplace(cfg, dt_sec);
    return *factor;
}

void
PdnMesh::substitute(const PdnStepFactor &f, PdnSolution &sol,
                    double *bumpA) const
{
    // The right-hand side overwrites the previous voltages in place:
    // gc V_prev - I_load at every node plus the per-bump source
    // gbe (Vdd + (L/dt) I_prev); the factor then turns it into the
    // new voltages.  At DC, gc = L/dt = 0 leaves -I_load + gb Vdd.
    const double gc = f.decapS();
    const double gbe = f.bumpS();
    const double l_dt = f.lOverDt();
    double *v = sol.voltage.data();
    for (size_t i = 0; i < loadA.size(); ++i)
        v[i] = gc * v[i] - loadA[i];
    for (size_t k = 0; k < bumpIdx.size(); ++k)
        v[bumpIdx[k]] +=
            gbe * (cfg.vdd + (bumpA ? l_dt * bumpA[k] : 0.0));
    f.solveInPlace(v);

    // Branch currents + bump observables from the same equations, so
    // the reported current is consistent with the solve just taken
    // (total bump charge balances load charge plus decap charge).
    double current = 0.0;
    double v_acc = 0.0;
    for (size_t k = 0; k < bumpIdx.size(); ++k) {
        const double node_v = v[bumpIdx[k]];
        const double i_new =
            gbe *
            (cfg.vdd + (bumpA ? l_dt * bumpA[k] : 0.0) - node_v);
        if (bumpA)
            bumpA[k] = i_new;
        current += i_new;
        v_acc += node_v;
    }
    sol.bumpCurrentA = current;
    sol.bumpVoltage =
        bumpIdx.empty() ? cfg.vdd
                        : v_acc / static_cast<double>(bumpIdx.size());
}

PdnSolution
PdnMesh::solve() const
{
    PdnSolution sol;
    solve(ownFactor(kPdnDcStep), sol);
    return sol;
}

void
PdnMesh::solve(const PdnStepFactor &dc, PdnSolution &sol) const
{
    aim_assert(dc.matches(cfg, kPdnDcStep), "DC factor of another mesh");
    sol.size = cfg.size;
    sol.voltage.assign(loadA.size(), 0.0);
    substitute(dc, sol, nullptr);
}

double
PdnMesh::kclResidualMax(const PdnSolution &sol) const
{
    const int n = cfg.size;
    aim_assert(sol.size == n && sol.voltage.size() == loadA.size(),
               "solution does not match the mesh");
    const double g = cfg.sheetConductance;
    const double *v = sol.voltage.data();
    double worst = 0.0;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
            const size_t i = nodeIndex(r, c);
            double acc = -loadA[i];
            if (r > 0)
                acc += g * (v[i - n] - v[i]);
            if (r + 1 < n)
                acc += g * (v[i + n] - v[i]);
            if (c > 0)
                acc += g * (v[i - 1] - v[i]);
            if (c + 1 < n)
                acc += g * (v[i + 1] - v[i]);
            if (isBump(r, c))
                acc += cfg.bumpConductance * (cfg.vdd - v[i]);
            worst = std::max(worst, std::fabs(acc));
        }
    return worst;
}

PdnTransientState
PdnMesh::transientInit(const PdnSolution &dc) const
{
    aim_assert(dc.size == cfg.size && dc.voltage.size() == loadA.size(),
               "transientInit needs a solution of this mesh");
    PdnTransientState state;
    state.sol = dc;
    state.bumpA.reserve(bumpIdx.size());
    for (int b : bumpIdx)
        state.bumpA.push_back(cfg.bumpConductance *
                              (cfg.vdd - dc.voltage[b]));
    return state;
}

void
PdnMesh::stepTransient(double dt_sec, PdnTransientState &state) const
{
    aim_assert(dt_sec > 0.0, "transient step needs dt > 0");
    stepTransient(ownFactor(dt_sec), state);
}

void
PdnMesh::stepTransient(const PdnStepFactor &f,
                       PdnTransientState &state) const
{
    aim_assert(f.matches(cfg, f.dtSec()), "step factor of another mesh");
    aim_assert(state.sol.size == cfg.size &&
                   state.sol.voltage.size() == loadA.size(),
               "transient state does not match the mesh");
    aim_assert(state.bumpA.size() == bumpIdx.size(),
               "transient state bump count");
    substitute(f, state.sol, state.bumpA.data());
}

} // namespace aim::power
