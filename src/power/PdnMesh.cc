#include "power/PdnMesh.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

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

/** Two doubles, the x86-64 baseline's SSE2 register width. */
using V2 = double __attribute__((vector_size(16)));

inline V2
load2(const double *p)
{
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * One register tile of a block product: acc[k] holds columns 2k and
 * 2k + 1 of sum_j m[j][.] in[j], where @p m points at the tile's
 * first column of an n x n row-major block.  The 2V sums are
 * independent chains, so a product is n steps deep however many
 * outputs it has.
 */
template <int V>
inline void
accumulate(const double *m, long n, const double *in, V2 (&acc)[V])
{
    for (int k = 0; k < V; ++k)
        acc[k] = V2{0.0, 0.0};
    for (long j = 0; j < n; ++j, m += n) {
        const V2 xj = {in[j], in[j]};
        for (int k = 0; k < V; ++k)
            acc[k] += load2(m + 2 * k) * xj;
    }
}

/**
 * out = m in (Add false) or out += alpha m in (Add true) for one
 * symmetric n x n block, read by columns: 8-output register tiles,
 * then 2-output tiles and a scalar tail.  @p in and @p out must not
 * overlap.
 */
template <bool Add>
void
product(const double *m, long n, const double *in, double *out,
        double alpha)
{
    auto emit = [&](long i, const V2 *acc, int v) {
        for (int k = 0; k < v; ++k)
            for (int h = 0; h < 2; ++h) {
                double &o = out[i + 2 * k + h];
                o = Add ? o + alpha * acc[k][h] : acc[k][h];
            }
    };
    long i = 0;
    for (; i + 8 <= n; i += 8) {
        V2 acc[4];
        accumulate(m + i, n, in, acc);
        emit(i, acc, 4);
    }
    for (; i + 2 <= n; i += 2) {
        V2 acc[1];
        accumulate(m + i, n, in, acc);
        emit(i, acc, 1);
    }
    if (i < n) {
        double s = 0.0;
        for (long j = 0; j < n; ++j)
            s += m[j * n + i] * in[j];
        out[i] = Add ? out[i] + alpha * s : s;
    }
}

/**
 * Overwrite the symmetric positive definite n x n matrix @p s
 * (row-major) with its inverse by Gauss-Jordan elimination in place.
 * An SPD matrix needs no pivoting (every pivot is positive), and
 * each update is an independent row axpy.  The upper triangle is
 * then mirrored, so the stored inverse is exactly symmetric.
 */
void
invertSpd(double *s, long n)
{
    for (long k = 0; k < n; ++k) {
        double *sk = s + k * n;
        aim_assert(sk[k] > 0.0, "PDN matrix not positive definite");
        const double p = 1.0 / sk[k];
        sk[k] = 1.0;
        for (long j = 0; j < n; ++j)
            sk[j] *= p;
        for (long i = 0; i < n; ++i) {
            if (i == k)
                continue;
            double *si = s + i * n;
            const double f = si[k];
            si[k] = 0.0;
            for (long j = 0; j < n; ++j)
                si[j] -= f * sk[j];
        }
    }
    for (long i = 0; i < n; ++i)
        for (long j = 0; j < i; ++j)
            s[i * n + j] = s[j * n + i];
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
// Either system is factored by the block elimination below and
// solved by two sweeps of row-block products: no iteration.
PdnStepFactor::PdnStepFactor(const PdnMeshConfig &cfg, double dt_sec)
    : n(cfg.size), pitch(cfg.bumpPitch), g(cfg.sheetConductance),
      gb(cfg.bumpConductance), dt(dt_sec), gc(cfg.decapFarad / dt),
      lDt(cfg.bumpInductanceH / dt),
      gbe(lDt == 0.0 ? gb : 1.0 / (1.0 / gb + lDt))
{
    validate(cfg);
    aim_assert(dt_sec > 0.0, "PDN step needs dt > 0");

    // Block elimination over grid rows: S_0 = T_0, S_r = T_r -
    // g^2 M_{r-1}, where T_r is row r's tridiagonal block (diagonal
    // = links * g + gc, + gbe on bumps; -g to the west and east
    // neighbours) and -g I couples row r to its neighbour rows.
    const long nn = static_cast<long>(n) * n;
    inv.assign(static_cast<size_t>(nn * n), 0.0);
    std::vector<double> s(static_cast<size_t>(nn));
    const double g2 = g * g;
    for (int r = 0; r < n; ++r) {
        if (r == 0)
            std::fill(s.begin(), s.end(), 0.0);
        else
            for (long k = 0; k < nn; ++k)
                s[k] = -g2 * inv[(r - 1) * nn + k];
        for (int c = 0; c < n; ++c) {
            double *row = s.data() + static_cast<long>(c) * n;
            const int links =
                (r > 0) + (r + 1 < n) + (c > 0) + (c + 1 < n);
            row[c] += links * g + gc;
            if (r % pitch == 0 && c % pitch == 0)
                row[c] += gbe;
            if (c > 0)
                row[c - 1] -= g;
            if (c + 1 < n)
                row[c + 1] -= g;
        }
        invertSpd(s.data(), n);
        std::copy(s.begin(), s.end(), inv.begin() + r * nn);
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
    const long nn = static_cast<long>(n) * n;
    // One grid row of scratch holds the forward pass's right-hand
    // side while its product overwrites the row (each row writes
    // all n entries before its product reads them): on the stack for
    // every mesh up to kStackRow nodes a side (whose factor is
    // already 1 GiB), on the heap beyond.
    constexpr long kStackRow = 512;
    std::array<double, kStackRow> onStack;
    std::vector<double> onHeap(n > kStackRow ? n : 0);
    double *t = n > kStackRow ? onHeap.data() : onStack.data();

    // Forward: u_r = M_r (b_r + g u_{r-1}), row r's u over its b.
    for (long r = 0; r < n; ++r) {
        double *xr = x + r * n;
        for (long c = 0; c < n; ++c)
            t[c] = r == 0 ? xr[c] : xr[c] + g * xr[c - n];
        product<false>(inv.data() + r * nn, n, t, xr, 1.0);
    }
    // Back: x_r = u_r + g M_r x_{r+1}; the last row's u is its x.
    for (long r = n - 2; r >= 0; --r)
        product<true>(inv.data() + r * nn, n, x + (r + 1) * n,
                      x + r * n, g);
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
