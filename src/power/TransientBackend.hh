/**
 * @file
 * di/dt transient droop backend: the PDN mesh with per-node decap
 * and bump-branch loop inductance, advanced one backward-Euler step
 * per window (IrBackendKind::Transient).
 *
 * The purely resistive MeshBackend re-solves DC per window, so its
 * droop is a memoryless function of the window's demand -- it cannot
 * produce the first-droop overshoot the paper's Figure 17 traces
 * show on load steps.  This backend keeps the node-voltage vector
 * and the bump inductor currents as per-round IrEval state: when a
 * bursty ToggleStats window steps the demand current, the bump
 * branches cannot follow the di/dt, the difference discharges the
 * decap, and the droop transiently overshoots the DC solution before
 * the inductor current catches up (classic first droop).  Under
 * steady demand the state relaxes onto MeshBackend's DC solve; with
 * decap and inductance at zero (or dt -> infinity) every step *is*
 * the DC solve.
 *
 * The step's matrix depends only on the mesh, its storage elements
 * and dt, so the backend factors it once per dt (PdnStepFactor) and
 * every round's evaluator shares that immutable factor: a window
 * costs one forward and one back sweep of dense row-block products
 * (~2 us at the default 16 x 16), with no iteration and no
 * convergence cap.
 *
 * Everything except the per-window step is inherited from
 * MeshBackend: the macro footprint mapping, the full-activity DC
 * solve and the Equation-2 anchor calibration (so all three backends
 * agree on how much current flows at full uniform activity, and the
 * transient backend disagrees only where history matters).
 */

#ifndef AIM_POWER_TRANSIENTBACKEND_HH
#define AIM_POWER_TRANSIENTBACKEND_HH

#include <map>
#include <mutex>

#include "power/MeshBackend.hh"

namespace aim::power
{

class TransientEval;

/** di/dt RC-mesh droop backend (IrBackendKind::Transient). */
class TransientBackend final : public MeshBackend
{
  public:
    /**
     * Pays MeshBackend's DC factor and full-activity solve, then
     * derives the transient mesh config (decap, bump inductance,
     * step) from IrBackendConfig's transient* fields and, at a fixed
     * step, factors the step matrix.
     */
    TransientBackend(const IrBackendConfig &cfg,
                     const Calibration &cal);

    IrBackendKind
    kind() const override
    {
        return IrBackendKind::Transient;
    }

    std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros)
        const override;

    /**
     * Evaluator seeded from a previous round's settled RC/RL state
     * (TransientEval::exportState): the node voltages and bump
     * currents start where the last request on this chip left them,
     * so a back-to-back burst sees electrical continuity instead of
     * the cold full-activity DC re-init.  A seed carries no solver
     * data, so one exported by another backend of the same mesh
     * geometry steps on this backend's own system.  Null or foreign
     * seeds, and seeds of another mesh geometry, fall back to the
     * cold path bit-identically.
     */
    std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros,
            const IrState *seed) const override;

    /** Mesh config of the per-window transient steps. */
    const PdnMeshConfig &transientConfig() const { return transCfg; }

    /** Fixed Backward-Euler step per window [s]; 0 in auto-dt mode
     * (IrBackendConfig::transientDtNs == 0). */
    double dtSec() const { return stepSec; }

    /**
     * The step actually integrated for a window whose fastest active
     * group runs at @p fMaxGhz: the configured fixed step, or -- in
     * auto-dt mode -- the shortest group window's physical duration,
     * windowCycles / f (conservative: the RC state is advanced no
     * further than any group's clock).  A non-positive frequency (no
     * active groups) falls back to the calibration's nominal clock.
     */
    double effectiveDtSec(double fMaxGhz) const;

  private:
    friend class TransientEval;

    /**
     * The factored step matrix at @p dtSec, built on first use and
     * kept for the backend's lifetime (thread-safe).  A fixed-dt
     * backend builds its one factor at construction; in auto-dt mode
     * there is one per distinct window clock, i.e. per V-f grid
     * frequency the booster visits.
     */
    const PdnStepFactor &stepFactor(double dtSec) const;

    PdnMeshConfig transCfg;
    double stepSec = 2e-9;
    bool autoDt = false;
    int winCycles = 8;
    mutable std::mutex factorMutex;
    /** Step factors by dt; map nodes never move, so references to
     *  them stay valid for the backend's lifetime. */
    mutable std::map<double, PdnStepFactor> factors;
};

} // namespace aim::power

#endif // AIM_POWER_TRANSIENTBACKEND_HH
