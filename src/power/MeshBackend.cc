#include "power/MeshBackend.hh"

#include <algorithm>
#include <cmath>

#include "util/Logging.hh"

namespace aim::power
{

namespace
{

/** Grid shape (rows x cols) that tiles @p n cells near-squarely. */
std::pair<int, int>
gridShape(int n)
{
    int cols = 1;
    while (cols * cols < n)
        ++cols;
    const int rows = (n + cols - 1) / cols;
    return {rows, cols};
}

/** The purely resistive mesh a backend's geometry describes. */
PdnMeshConfig
dcMeshConfig(const IrBackendConfig &cfg, const Calibration &cal)
{
    PdnMeshConfig mesh;
    mesh.size = cfg.meshSize;
    mesh.bumpPitch = cfg.meshBumpPitch;
    mesh.vdd = cal.vddNominal;
    return mesh;
}

} // namespace

/**
 * Per-round mesh evaluator: the round's applied currents and the DC
 * solution of the last load change.
 */
class MeshEval final : public IrEval
{
  public:
    MeshEval(const MeshBackend &backend,
             const std::vector<std::vector<int>> &activeMacros)
        : bk(backend), mesh(backend.meshCfg)
    {
        const auto rects = bk.groupRects(activeMacros);
        groupNodes = bk.groupNodeLists(rects);
        const size_t groups = rects.size();
        activeCount.assign(groups, 0);
        appliedA.assign(groups, -1.0);
        demandA.assign(groups, 0.0);
        cachedDynMv.assign(groups, 0.0);
        for (size_t g = 0; g < groups; ++g)
            activeCount[g] = static_cast<int>(rects[g].size());
    }

    void
    window(const std::vector<GroupWindow> &groups, util::Rng &rng,
           std::vector<double> &dropMv) override
    {
        const double threshold = bk.bcfg.rtogThreshold;
        pendingDeltas.clear();
        for (size_t g = 0; g < groups.size(); ++g) {
            const GroupWindow &gw = groups[g];
            if (!gw.active || activeCount[g] == 0)
                continue;
            demandA[g] = bk.groupDemandA(gw.v, gw.fGhz, gw.rtog,
                                         activeCount[g]);
            const bool dirty =
                appliedA[g] < 0.0 ||
                std::fabs(demandA[g] - appliedA[g]) >
                    threshold * std::max(appliedA[g], 1e-6);
            if (dirty) {
                // Incremental load update: only the delta, batched
                // into the window's single applyLoadDeltas call.
                const double delta =
                    demandA[g] - std::max(appliedA[g], 0.0);
                const MeshBackend::GroupNodes &gn = groupNodes[g];
                for (size_t i = 0; i < gn.nodes.size(); ++i)
                    pendingDeltas.push_back(
                        {gn.nodes[i], delta * gn.weightPerAmp[i]});
                appliedA[g] = demandA[g];
            }
        }
        if (!pendingDeltas.empty()) {
            // Exact DC solve of the new loads through the backend's
            // shared factor, in place: two sweeps of row-block
            // products and no per-window allocation.
            mesh.applyLoadDeltas(pendingDeltas);
            mesh.solve(bk.dcFactor, sol);
            for (size_t g = 0; g < groupNodes.size(); ++g)
                if (activeCount[g] > 0)
                    cachedDynMv[g] =
                        bk.scale * MeshBackend::nodesDropMv(
                                       sol, groupNodes[g],
                                       bk.meshCfg.vdd);
        }

        for (size_t g = 0; g < groups.size(); ++g) {
            const GroupWindow &gw = groups[g];
            if (!gw.active)
                continue;
            // Linear network: a group's drop scales with its demand
            // between load refreshes (bounded by rtogThreshold).
            const double ratio = appliedA[g] > 1e-12
                                     ? demandA[g] / appliedA[g]
                                     : 1.0;
            const double base = bk.ir.staticDropMv(gw.v) +
                                cachedDynMv[g] * ratio;
            const double noisy =
                base + rng.normal(0.0, bk.cal.dpimNoiseMv);
            dropMv[g] = std::max(noisy, 0.0);
        }
    }

  private:
    const MeshBackend &bk;
    PdnMesh mesh;
    PdnSolution sol;
    std::vector<MeshBackend::GroupNodes> groupNodes;
    std::vector<PdnLoadDelta> pendingDeltas;
    std::vector<int> activeCount;
    std::vector<double> appliedA;
    std::vector<double> demandA;
    std::vector<double> cachedDynMv;
};

MeshBackend::MeshBackend(const IrBackendConfig &cfg,
                         const Calibration &cal)
    : bcfg(cfg), cal(cal), ir(cal),
      meshCfg(dcMeshConfig(cfg, cal)), dcFactor(meshCfg, kPdnDcStep)
{
    aim_assert(bcfg.groups >= 1 && bcfg.macrosPerGroup >= 1,
               "mesh backend needs a positive chip geometry");

    fullA = ir.demandCurrentA(
        ir.dynamicDropMv(cal.vddNominal, cal.fNominal, 1.0));

    // Calibration solve: every macro at full activity.  Its solution
    // is also the transient backend's cold-start operating point.
    PdnMesh mesh(meshCfg);
    const int macros = bcfg.groups * bcfg.macrosPerGroup;
    const double per_macro = fullA / macros;
    for (int m = 0; m < macros; ++m) {
        const Footprint r = macroFootprint(m);
        mesh.addBlockLoad(r.row0, r.col0, r.rows, r.cols, per_macro);
    }
    mesh.solve(dcFactor, baselineSol);

    // Anchor the mesh to Equation 2: at uniform full activity the
    // mean group drop must equal the analytic dynamic drop, so the
    // two backends disagree only where layout actually matters.
    const double mesh_mean = baselineSol.meanDropMv(cal.vddNominal);
    aim_assert(mesh_mean > 0.0,
               "mesh calibration produced no droop");
    scale = ir.dynamicDropMv(cal.vddNominal, cal.fNominal, 1.0) /
            mesh_mean;
}

std::vector<std::vector<MeshBackend::Footprint>>
MeshBackend::groupRects(
    const std::vector<std::vector<int>> &active_macros) const
{
    std::vector<std::vector<Footprint>> rects(
        static_cast<size_t>(bcfg.groups));
    const int known = std::min(
        bcfg.groups, static_cast<int>(active_macros.size()));
    for (int g = 0; g < known; ++g)
        for (int m : active_macros[static_cast<size_t>(g)])
            rects[static_cast<size_t>(g)].push_back(
                macroFootprint(m));
    return rects;
}

std::vector<MeshBackend::GroupNodes>
MeshBackend::groupNodeLists(
    const std::vector<std::vector<Footprint>> &rects) const
{
    const int n = meshCfg.size;
    std::vector<GroupNodes> out(rects.size());
    for (size_t g = 0; g < rects.size(); ++g) {
        const auto &rs = rects[g];
        if (rs.empty())
            continue;
        GroupNodes &gn = out[g];
        const double per_macro =
            1.0 / static_cast<double>(rs.size());
        for (const auto &r : rs) {
            const double w =
                per_macro /
                (static_cast<double>(r.rows) * r.cols);
            for (int row = r.row0; row < r.row0 + r.rows; ++row)
                for (int col = r.col0; col < r.col0 + r.cols;
                     ++col) {
                    gn.nodes.push_back(row * n + col);
                    gn.weightPerAmp.push_back(w);
                }
        }
    }
    return out;
}

double
MeshBackend::nodesDropMv(const PdnSolution &sol, const GroupNodes &gn,
                         double vdd)
{
    double acc = 0.0;
    for (int node : gn.nodes)
        acc += (vdd - sol.voltage[static_cast<size_t>(node)]) *
               1000.0;
    return gn.nodes.empty()
               ? 0.0
               : acc / static_cast<double>(gn.nodes.size());
}

MeshBackend::Footprint
MeshBackend::macroFootprint(int m) const
{
    const auto [g_rows, g_cols] = gridShape(bcfg.groups);
    const auto [m_rows, m_cols] = gridShape(bcfg.macrosPerGroup);
    const int g = m / bcfg.macrosPerGroup;
    const int local = m % bcfg.macrosPerGroup;
    const int gr = g / g_cols;
    const int gc = g % g_cols;
    const int mr = local / m_cols;
    const int mc = local % m_cols;
    const int n = meshCfg.size;

    const int tile_r0 = gr * n / g_rows;
    const int tile_r1 = (gr + 1) * n / g_rows;
    const int tile_c0 = gc * n / g_cols;
    const int tile_c1 = (gc + 1) * n / g_cols;
    const int tile_rows = tile_r1 - tile_r0;
    const int tile_cols = tile_c1 - tile_c0;

    Footprint out;
    out.row0 = tile_r0 + mr * tile_rows / m_rows;
    out.col0 = tile_c0 + mc * tile_cols / m_cols;
    out.rows =
        std::max(1, tile_r0 + (mr + 1) * tile_rows / m_rows -
                        out.row0);
    out.cols =
        std::max(1, tile_c0 + (mc + 1) * tile_cols / m_cols -
                        out.col0);
    return out;
}

double
MeshBackend::groupDemandA(double v, double fGhz, double rtog,
                          int active_macros) const
{
    const int macros = bcfg.groups * bcfg.macrosPerGroup;
    return ir.demandCurrentA(ir.dynamicDropMv(v, fGhz, rtog)) *
           active_macros / macros;
}

std::unique_ptr<IrEval>
MeshBackend::newEval(
    const std::vector<std::vector<int>> &activeMacros) const
{
    return std::make_unique<MeshEval>(*this, activeMacros);
}

} // namespace aim::power
