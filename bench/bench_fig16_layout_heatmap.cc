/**
 * @file
 * Paper Figure 16: IR-drop distribution across the chip layout before
 * and after AIM, from the resistive-mesh PDN solver (the RedHawk
 * substitute).  The floorplan places two RISC-V cores and on-chip
 * memory at the top band and the 8x8 macro array below; AIM reduces
 * macro currents (lower Rtog at lower V), shrinking the hotspots.
 */

#include "BenchCommon.hh"

#include "power/PdnMesh.hh"

using namespace aim;
using namespace aim::bench;

namespace
{

/** The chip's DC solution and the KCL residual it leaves [A]. */
struct ChipSolve
{
    power::PdnSolution sol;
    double residualA = 0.0;
};

ChipSolve
solveChip(double macro_current_a)
{
    power::PdnMeshConfig cfg;
    cfg.size = 48;
    power::PdnMesh mesh(cfg);
    // Top band: RISC-V cores + memories (light, distributed load).
    mesh.addBlockLoad(1, 2, 6, 20, 0.35);
    mesh.addBlockLoad(1, 26, 6, 20, 0.35);
    // 8x8 PIM macro array in the lower region.
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            mesh.addBlockLoad(10 + r * 4, 4 + c * 5, 3, 4,
                              macro_current_a);
    ChipSolve out{mesh.solve()};
    out.residualA = mesh.kclResidualMax(out.sol);
    return out;
}

} // namespace

int
main()
{
    banner("Figure 16", "layout IR-drop heat map before/after AIM");

    const auto cal = power::defaultCalibration();
    const power::IrModel ir(cal);
    // Worst-window currents: baseline at Rtog ~0.47 (HR 0.5 x near-
    // full toggling burst); AIM at Rtog ~0.25 and V ~0.68.
    const double i_before =
        ir.demandCurrentA(ir.dropMv(0.75, 1.0, 0.47)) / 8.0;
    const double i_after =
        ir.demandCurrentA(ir.dropMv(0.68, 1.0, 0.25)) / 8.0;

    const auto [before, before_res] = solveChip(i_before);
    const auto [after, after_res] = solveChip(i_after);

    std::printf("\n(a) before AIM: worst %.1f mV, mean %.1f mV\n",
                before.worstDropMv(0.75), before.meanDropMv(0.75));
    std::fputs(before.renderHeatMap(0.75, 90.0).c_str(), stdout);
    std::printf("\n(b) after AIM: worst %.1f mV, mean %.1f mV\n",
                after.worstDropMv(0.75), after.meanDropMv(0.75));
    std::fputs(after.renderHeatMap(0.75, 90.0).c_str(), stdout);

    std::printf("\nmitigation on the layout solver: %.1f%% "
                "(paper: hotspots concentrate in the macro array and "
                "shrink after AIM; RISC-V/memory barely change)\n",
                100.0 * (1.0 - after.worstDropMv(0.75) /
                                   before.worstDropMv(0.75)));
    std::printf("KCL residuals: before %.2e A, after %.2e A\n",
                before_res, after_res);
    return 0;
}
