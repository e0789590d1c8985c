/**
 * @file
 * 2-D resistive power-delivery-network solver -- the RedHawk layout
 * substitute behind the paper's Figure 16 heat maps and Figure 17
 * bump traces.
 *
 * The die is discretized into a grid of PDN nodes joined by equal
 * sheet conductances.  Bump nodes (C4 pads) connect to the ideal
 * supply through a bump resistance; circuit blocks draw current at
 * their footprint nodes.  Solving Kirchhoff's current law yields the
 * on-die voltage map; IR-drop is VDD minus that map.
 *
 * The three DC solve paths share one sweep kernel (see
 * PdnSolverKind): red-black ordered SOR (the default for warm
 * incremental re-solves: two data-independent half-sweeps,
 * parallelizable over exec::ExecPool with bit-identical results at
 * any thread count), a geometric-multigrid V-cycle (cold solves and
 * large meshes), and the seed's lexicographic SOR kept as the
 * reference ordering the property suite compares against
 * (tests/power/SolverPropertyTest).  The transient step with decap
 * or bump inductance is a direct solve instead: its matrix depends
 * only on geometry, storage and dt, so it is factored once
 * (PdnStepFactor) and every step is two triangular substitutions.
 */

#ifndef AIM_POWER_PDNMESH_HH
#define AIM_POWER_PDNMESH_HH

#include <optional>
#include <string>
#include <vector>

namespace aim::exec
{
class ExecPool;
}

namespace aim::power
{

/**
 * Which solver answers PdnMesh::solve.
 *
 *   Auto          -- multigrid for cold solves and meshes larger
 *                    than kRbMaxAutoSize (24) nodes per side;
 *                    warm-started red-black SOR for incremental
 *                    re-solves (the droop backends' per-window path).
 *   Lexicographic -- the seed's single-order SOR sweeps, kept as the
 *                    bit-stable reference implementation.
 *   RedBlack      -- force red-black SOR for every solve.
 *   Multigrid     -- force the V-cycle for every solve.
 */
enum class PdnSolverKind : int
{
    Auto,
    Lexicographic,
    RedBlack,
    Multigrid,
};

/** Mesh geometry and electrical parameters. */
struct PdnMeshConfig
{
    /** Grid nodes per side. */
    int size = 48;
    /** Sheet conductance between neighbouring nodes [S]. */
    double sheetConductance = 28.0;
    /** Conductance from a bump node to the ideal supply [S]. */
    double bumpConductance = 90.0;
    /** Bump pitch in grid nodes (every k-th node on both axes). */
    int bumpPitch = 6;
    /** Supply voltage at the bumps [V]. */
    double vdd = 0.75;
    /** SOR relaxation factor. */
    double omega = 1.88;
    /**
     * Convergence threshold on the max KCL residual [A].  The single
     * tolerance constant every iterative solve path gates on -- SOR
     * sweeps and the multigrid outer loop and its coarsest-level
     * solve (the direct transient step needs none);
     * PdnSolution::converged reports the outcome so callers (the
     * droop backends' quiet-window guard) never re-derive it.
     */
    double tolerance = 1e-7;
    /** Iteration cap: SOR sweeps, or V-cycles on the multigrid path. */
    int maxIterations = 20000;
    /** Solve-path selection (see PdnSolverKind). */
    PdnSolverKind solver = PdnSolverKind::Auto;
    /**
     * Decap from every node to ground [F].  Zero (the default) keeps
     * the mesh purely resistive: stepTransient degenerates to a
     * warm-started DC solve and the DC solve() path never reads it.
     */
    double decapFarad = 0.0;
    /**
     * Series loop inductance of each bump branch [H] (C4 + package).
     * The branch becomes supply -> L -> 1/bumpConductance -> node;
     * zero keeps the branch purely resistive.
     */
    double bumpInductanceH = 0.0;
};

/** Solved voltage map plus bump observables. */
struct PdnSolution
{
    /** Node voltages, row-major size x size [V]. */
    std::vector<double> voltage;
    int size = 0;
    /** Iterations used: SOR sweeps, or V-cycles for multigrid. */
    int iterations = 0;
    /** Max |KCL residual| at the last iteration [A]. */
    double residual = 0.0;
    /**
     * True when the solver reached PdnMeshConfig::tolerance within
     * its iteration cap -- the one convergence predicate shared by
     * every solve path and by the droop backends' quiet-window
     * guard.
     */
    bool converged = false;
    /** Total current delivered through the bumps [A]. */
    double bumpCurrentA = 0.0;
    /** Mean voltage across bump nodes [V]. */
    double bumpVoltage = 0.0;

    /** Worst (largest) IR-drop on the die [mV]. */
    double worstDropMv(double vdd) const;
    /** Mean IR-drop over all nodes [mV]. */
    double meanDropMv(double vdd) const;
    /** Drop at one node [mV]. */
    double dropAtMv(int row, int col, double vdd) const;
    /** ASCII heat map of the drop (darker glyph = larger drop). */
    std::string renderHeatMap(double vdd, double scaleMv) const;
};

/** One sparse load adjustment: amps added at a flat node index. */
struct PdnLoadDelta
{
    int node = 0;
    double amps = 0.0;
};

/**
 * Transient (RC + bump-L) state advanced by PdnMesh::stepTransient:
 * the node-voltage map of the last accepted step plus the inductor
 * current of every bump branch (row-major bump order).  Seed it from
 * a DC solution with PdnMesh::transientInit.  The state holds no
 * solver data -- the step's factor belongs to the mesh or backend
 * that steps it -- so it can move between meshes of one geometry.
 */
struct PdnTransientState
{
    /** Node voltages at the last step. */
    PdnSolution sol;
    /** Bump-branch inductor currents [A], row-major over bumps. */
    std::vector<double> bumpA;
};

/**
 * The backward-Euler step matrix of one (geometry, decap, bump L,
 * dt), factored once.  The matrix is the nodal diagonal (neighbour
 * links + decap conductance C/dt, plus the effective bump
 * conductance 1/(1/gb + L/dt) on bump nodes) minus the sheet
 * conductance on every grid link: symmetric positive definite with
 * half-bandwidth `size` in row-major node order.  Its banded
 * Cholesky factor holds size^2 x (size + 1) doubles, and a step is
 * one forward and one back substitution -- no iteration, exact up to
 * rounding.  Immutable once built, so one factor is shared read-only
 * by every mesh and thread that steps the same system.
 */
class PdnStepFactor
{
  public:
    /** Factor the step matrix of @p cfg at step @p dtSec (> 0). */
    PdnStepFactor(const PdnMeshConfig &cfg, double dtSec);

    /**
     * True when this factor was built from @p cfg's matrix at
     * @p dtSec: size, bump pitch, sheet and bump conductance, decap,
     * bump inductance and dt all equal.
     */
    bool matches(const PdnMeshConfig &cfg, double dtSec) const;

    double dtSec() const { return dt; }
    /** Decap conductance C/dt of every node [S]. */
    double decapS() const { return gc; }
    /** Effective bump-branch conductance 1/(1/gb + L/dt) [S]. */
    double bumpS() const { return gbe; }
    /** Bump-branch L/dt [ohm]. */
    double lOverDt() const { return lDt; }

    /** Overwrite @p rhs (size^2 values) with the step's solution. */
    void solveInPlace(double *rhs) const;

  private:
    // The matrix inputs (what matches() compares), then the step
    // coefficients derived from them.
    int n, pitch;
    double g, gb, decap, bumpL, dt;
    double gc, lDt, gbe;
    /**
     * Row i of the lower factor L at [i * (n + 1), (i + 1) * (n + 1)):
     * L[i][i - n .. i - 1], then 1 / L[i][i].
     */
    std::vector<double> band;
};

/**
 * PDN mesh solver.  Immutable geometry (conductances, bumps and the
 * precomputed nodal diagonals) with a mutable load set.  The solve
 * methods reuse internal scratch buffers (and stepTransient caches
 * its factors in the mesh), so concurrent solve() or stepTransient()
 * calls on ONE instance race -- callers that parallelize hold one
 * mesh per worker (the droop backends already hold one per
 * round-eval); a single solve may itself fan out over an
 * exec::ExecPool bit-deterministically.
 */
class PdnMesh
{
  public:
    explicit PdnMesh(const PdnMeshConfig &cfg);

    /** Zero all load currents. */
    void clearLoads();

    /**
     * Add a rectangular current load (a circuit block footprint).
     * The current is spread uniformly over the covered nodes.
     *
     * @param row0,col0 upper-left node (inclusive)
     * @param rows,cols footprint extent in nodes
     * @param currentA  total block current [A]
     */
    void addBlockLoad(int row0, int col0, int rows, int cols,
                      double currentA);

    /**
     * Apply a batch of sparse load deltas in one pass -- the droop
     * backends' per-window path: every dirty group's demand delta,
     * pre-scattered onto flat node indices, lands in a single call
     * instead of per-group addBlockLoad rectangles.
     */
    void applyLoadDeltas(const std::vector<PdnLoadDelta> &deltas);

    /** Flat row-major index of a node. */
    int
    nodeIndex(int row, int col) const
    {
        return row * cfg.size + col;
    }

    /** Solve KCL for the current load set (flat-VDD initial guess). */
    PdnSolution solve() const;

    /**
     * Solve KCL warm-started from a previous solution.  When
     * @p warmStart matches the mesh size its voltage map seeds the
     * sweeps, so a re-solve after a small load perturbation
     * converges in a handful of iterations instead of a cold solve's
     * hundreds (see PdnMeshTest.WarmStartCutsIterations).  A null or
     * mismatched warm start falls back to the flat-VDD guess -- and,
     * under PdnSolverKind::Auto, onto the multigrid path.
     */
    PdnSolution solve(const PdnSolution *warmStart) const;

    /**
     * Solve with the red-black half-sweeps (and the multigrid
     * smoother) fanned out over @p pool.  Results are bit-identical
     * to the serial solve at every thread count: each half-sweep
     * only reads the opposite colour, so node updates are
     * order-independent, and the residual is a max-reduction.  A
     * null pool (or the lexicographic path) runs serially.
     */
    PdnSolution solve(const PdnSolution *warmStart,
                      exec::ExecPool *pool) const;

    /**
     * In-place re-solve: @p sol doubles as the warm start and the
     * result, so the droop backends' per-window loop allocates
     * nothing.  An empty or mismatched @p sol cold-starts from the
     * flat-VDD guess.
     */
    void resolve(PdnSolution &sol,
                 exec::ExecPool *pool = nullptr) const;

    /**
     * Consistent transient state for a DC operating point: voltages
     * from @p dc, every bump-branch inductor current at its DC value
     * (what the branch resistor carries at those voltages).  Starting
     * from transientInit(solve()) and holding the loads, stepTransient
     * is a fixed point.
     */
    PdnTransientState transientInit(const PdnSolution &dc) const;

    /**
     * Advance the RC/RL network one backward-Euler step of @p dtSec
     * seconds from @p state under the current load set, in place.
     *
     * Branch-implicit discretization: the bump inductor current is
     * eliminated into the nodal system (an effective bump conductance
     * 1/(1/gb + L/dt) plus a history source), and every node gains a
     * decap conductance C/dt with a C/dt * V_prev history source --
     * unconditionally stable at any dt.  The step solves these
     * implicit equations directly through the mesh's PdnStepFactor
     * for @p dtSec, built on first use and rebuilt whenever an input
     * of the matrix changes (the mesh keeps one); the factor is bound
     * to this mesh, never to @p state.  The step reports 0
     * iterations, residual 0 and converged.  With decapFarad == 0 and bumpInductanceH == 0 the
     * step *is* the warm-started DC solve (resolve), bit for bit.
     */
    void stepTransient(double dtSec, PdnTransientState &state) const;

    /**
     * The same storage step through a caller-held factor of this
     * mesh's matrix (fatal on a factor of another geometry or
     * storage): the transient backend's path, where one factor
     * serves every round's mesh.
     */
    void stepTransient(const PdnStepFactor &factor,
                       PdnTransientState &state) const;

    /**
     * Max |KCL residual| of @p sol under the current load set [A] --
     * the solver-independent convergence check the property suite
     * gates every solve path on.
     */
    double kclResidualMax(const PdnSolution &sol) const;

    /** True when a node is a bump (supply-connected) node. */
    bool isBump(int row, int col) const;

    const PdnMeshConfig &config() const { return cfg; }

    /** Auto picks red-black only at size <= this (else multigrid). */
    static constexpr int kRbMaxAutoSize = 24;

  private:
    /**
     * One coarse grid of the multigrid hierarchy (level >= 1; the
     * finest level lives in the caller's PdnSolution).  pj0/pj1 and
     * pw0/pw1 map each 1-D index of the PARENT (finer) grid onto two
     * coarse indices with linear-interpolation weights; the 2-D
     * restriction/prolongation operators are their tensor product.
     */
    struct MgLevel
    {
        int n = 0;
        /** Nodal diagonal: neighbour links + aggregated supply. */
        std::vector<double> diag;
        /** Smoother reciprocal, kMgOmega / diag. */
        std::vector<double> invW;
        /** Fine-index -> coarse interpolation (second weight may
         *  be zero: even rows/cols and the clamped far edge). */
        std::vector<int> pj0, pj1;
        std::vector<double> pw0, pw1;
        /** Correction, restricted residual, residual scratch. */
        std::vector<double> v, src, res;
    };

    void solveLexicographic(PdnSolution &sol) const;
    void solveRedBlack(PdnSolution &sol, exec::ExecPool *pool) const;
    void solveMultigrid(PdnSolution &sol, exec::ExecPool *pool) const;
    /** Fill srcScratch with the DC source vector (loads + bumps). */
    void buildDcSource() const;
    /** Bump observables of a finished solve. */
    void finishSolution(PdnSolution &sol) const;
    /** Build the coarse-grid hierarchy (at construction). */
    void buildMultigrid();
    /** One V-cycle recursion step over level @p lvl. */
    void mgVCycle(int lvl, double *v, const double *src,
                  const double *diag, const double *invW, int n,
                  exec::ExecPool *pool) const;

    PdnMeshConfig cfg;
    std::vector<double> loadA;

    // Geometry precomputed at construction: flat bump indices
    // (row-major), the DC diagonal (neighbour links + bump
    // conductance) and its omega-scaled reciprocal -- the sweep
    // kernels run division-free.
    std::vector<int> bumpIdx;
    std::vector<double> dcDiag;
    std::vector<double> dcInvW;
    /** Finest-level multigrid smoother reciprocal (kMgOmega/diag). */
    std::vector<double> mgInvW0;

    // Per-solve scratch (see the class comment on thread safety).
    mutable std::vector<double> srcScratch;
    mutable std::vector<double> mgRes0;
    mutable std::vector<MgLevel> mg; ///< coarse levels, finest first
    /** Factor of the last standalone stepTransient(dt, state). */
    mutable std::optional<PdnStepFactor> stepFactor;
};

} // namespace aim::power

#endif // AIM_POWER_PDNMESH_HH
