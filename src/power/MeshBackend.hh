/**
 * @file
 * Layout-level droop backend: the window engine's view of the
 * PdnMesh solver (power/PdnMesh).
 *
 * Geometry: the die is tiled into a gRows x gCols grid of group
 * regions, each subdivided into macro sub-tiles; a group's *active*
 * macros inject demand current at their footprint nodes.  Demand
 * follows the same Equation-2 current model the analytic backend
 * implies (IrModel::demandCurrentA), so both backends agree on *how
 * much* current flows -- the mesh adds *where* it flows and what the
 * resistive network does with it (bump proximity, neighbour
 * coupling).
 *
 * Cost model: construction factors the mesh's DC matrix once
 * (PdnStepFactor at kPdnDcStep: one inverse Schur complement per
 * grid row, ~40 us at the default 16 x 16) and solves the
 * full-activity load through it (this also calibrates the mesh
 * scale to Equation 2's full-activity dynamic drop).  Every round's
 * evaluator shares that factor read-only; per window, only groups
 * whose demand current moved beyond IrBackendConfig::rtogThreshold
 * contribute to one batched PdnMesh::applyLoadDeltas vector (their
 * footprints pre-flattened to node indices by groupNodeLists), and
 * one exact DC solve -- 31 dense 16 x 16 row-block products at the
 * default size, ~2 us -- runs in place.  Groups inside the threshold
 * scale their cached footprint drop linearly with demand (the mesh
 * is a linear network, so own-contribution scaling is exact).  A
 * window's droop is therefore a function of the round's applied
 * loads alone: the evaluator carries no solver history.
 */

#ifndef AIM_POWER_MESHBACKEND_HH
#define AIM_POWER_MESHBACKEND_HH

#include "power/IrBackend.hh"
#include "power/PdnMesh.hh"

namespace aim::power
{

class MeshEval;

/**
 * PDN-mesh droop backend (IrBackendKind::Mesh).  Also the base of
 * the di/dt TransientBackend, which reuses the footprint mapping,
 * the full-activity DC solve and the Equation-2 anchor calibration
 * and only swaps the per-window evaluator.
 */
class MeshBackend : public IrBackend
{
  public:
    /** Factors the DC matrix, solves full activity and calibrates
     *  the scale. */
    MeshBackend(const IrBackendConfig &cfg, const Calibration &cal);

    IrBackendKind
    kind() const override
    {
        return IrBackendKind::Mesh;
    }

    std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros)
        const override;

    /** Node rectangle of one macro's footprint. */
    struct Footprint
    {
        int row0 = 0;
        int col0 = 0;
        int rows = 0;
        int cols = 0;
    };

    /** Footprint of macro @p m on the mesh. */
    Footprint macroFootprint(int m) const;

    /**
     * A group's footprint flattened onto mesh node indices:
     * injecting deltaA * weightPerAmp[i] at nodes[i] spreads a group
     * demand delta evenly over its active macros and then evenly
     * over each macro's footprint nodes.  This is the batched
     * PdnMesh::applyLoadDeltas form of the per-rect addBlockLoad
     * scatter: the evaluators build one delta vector per window and
     * hand the mesh a single call.
     */
    struct GroupNodes
    {
        std::vector<int> nodes;
        std::vector<double> weightPerAmp;
    };

    /** Flatten @p rects (one entry per group) into GroupNodes. */
    std::vector<GroupNodes> groupNodeLists(
        const std::vector<std::vector<Footprint>> &rects) const;

    /** Mean drop over a flattened group footprint [mV]. */
    static double nodesDropMv(const PdnSolution &sol,
                              const GroupNodes &gn, double vdd);

    /**
     * Active-macro footprints per group (index = group id), sized to
     * the configured group count regardless of the layout's length.
     * The shared round-setup of every mesh-family evaluator.
     */
    std::vector<std::vector<Footprint>>
    groupRects(const std::vector<std::vector<int>> &activeMacros)
        const;

    /** Mesh-to-Equation-2 calibration factor. */
    double dynScale() const { return scale; }

    /** The construction-time full-activity DC solution. */
    const PdnSolution &baseline() const { return baselineSol; }

    /** Full-chip dynamic demand current at Rtog = 1, nominal V-f. */
    double fullDemandA() const { return fullA; }

    const IrBackendConfig &config() const { return bcfg; }

  protected:
    friend class MeshEval;

    /** Demand current one group draws [A]. */
    double groupDemandA(double v, double fGhz, double rtog,
                        int activeMacros) const;

    IrBackendConfig bcfg;
    Calibration cal;
    IrModel ir;
    /** Mesh config of the per-window DC solves (no storage). */
    PdnMeshConfig meshCfg;
    /** meshCfg's DC matrix, factored once and shared by every round. */
    PdnStepFactor dcFactor;
    PdnSolution baselineSol;
    double scale = 1.0;
    double fullA = 0.0;
};

} // namespace aim::power

#endif // AIM_POWER_MESHBACKEND_HH
