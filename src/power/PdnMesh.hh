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
 * One direct solver answers every solve.  The nodal matrix depends
 * only on geometry, storage elements and the step size, so it is
 * factored once (PdnStepFactor, block elimination over grid rows)
 * and each solve is one forward and one back sweep of dense
 * row-block products -- no iteration, exact up to rounding.  A
 * transient step solves the backward-Euler matrix at its dt; the DC
 * system is that matrix at dt = infinity (C/dt = L/dt = 0,
 * kPdnDcStep), so the DC solve and a step without storage elements
 * are one computation.
 */

#ifndef AIM_POWER_PDNMESH_HH
#define AIM_POWER_PDNMESH_HH

#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace aim::power
{

/** Mesh geometry and electrical parameters. */
struct PdnMeshConfig
{
    /** Grid nodes per side. */
    int size = 48;
    /** Sheet conductance between neighbouring nodes [S] (> 0). */
    double sheetConductance = 28.0;
    /** Conductance from a bump node to the ideal supply [S] (> 0). */
    double bumpConductance = 90.0;
    /** Bump pitch in grid nodes (every k-th node on both axes). */
    int bumpPitch = 6;
    /** Supply voltage at the bumps [V]. */
    double vdd = 0.75;
    /**
     * Decap from every node to ground [F].  Zero (the default) keeps
     * the mesh purely resistive: stepTransient is then the DC solve,
     * and the DC solve() never reads it.
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

/** The step size whose backward-Euler matrix is the DC matrix: the
 *  decap (C/dt) and bump-inductor (L/dt) terms vanish. */
inline constexpr double kPdnDcStep =
    std::numeric_limits<double>::infinity();

/**
 * The backward-Euler step matrix of one (geometry, decap, bump L,
 * dt), factored once.  The matrix is the nodal diagonal (neighbour
 * links + decap conductance C/dt, plus the effective bump
 * conductance 1/(1/gb + L/dt) on bump nodes) minus the sheet
 * conductance on every grid link: symmetric positive definite and,
 * in row-major node order, block tridiagonal over grid rows -- row
 * r's tridiagonal block T_r on the diagonal, -g I between
 * neighbouring rows.  At dt = kPdnDcStep it is the DC matrix.
 *
 * The factor holds the inverse Schur complements M_r = S_r^-1, with
 * S_0 = T_0 and S_r = T_r - g^2 M_{r-1}: size^3 doubles.  A solve is
 * 2 size - 1 dense size x size matrix-vector products, forward
 * u_r = M_r (b_r + g u_{r-1}) and back x_r = u_r + g M_r x_{r+1};
 * each product's size outputs accumulate independently, so no
 * dependency chain runs through every node.  Immutable once built,
 * so one factor is shared read-only by every mesh and thread that
 * solves the same system; a solve allocates nothing on a mesh of up
 * to 512 nodes a side (its one row of scratch lives on the stack).
 */
class PdnStepFactor
{
  public:
    /** Factor the matrix of @p cfg at step @p dtSec (> 0; kPdnDcStep
     *  for DC). */
    PdnStepFactor(const PdnMeshConfig &cfg, double dtSec);

    /**
     * True when @p cfg at @p dtSec solves this factor's system: size,
     * bump pitch, sheet and bump conductance, C/dt and L/dt all equal.
     * A mesh without storage elements matches its DC factor at any dt.
     */
    bool matches(const PdnMeshConfig &cfg, double dtSec) const;

    double dtSec() const { return dt; }
    /** Decap conductance C/dt of every node [S]. */
    double decapS() const { return gc; }
    /** Effective bump-branch conductance 1/(1/gb + L/dt) [S]. */
    double bumpS() const { return gbe; }
    /** Bump-branch L/dt [ohm]. */
    double lOverDt() const { return lDt; }

    /** Overwrite @p rhs (size^2 values) with the system's solution. */
    void solveInPlace(double *rhs) const;

  private:
    // The matrix inputs, then the coefficients derived from them
    // (what matches() compares, with the geometry).
    int n, pitch;
    double g, gb, dt;
    double gc, lDt, gbe;
    /** M_r at [r * n^2, (r + 1) * n^2), row-major and symmetric. */
    std::vector<double> inv;
};

/**
 * PDN mesh: immutable geometry with a mutable load set.
 * Construction builds no factor (the transient backend builds a mesh
 * every round and steps it through its own shared factor).  solve()
 * and stepTransient(dt, state) build the one factor they need on
 * first use and keep it in the mesh, so concurrent calls of those on
 * ONE instance race; callers that parallelize hold one mesh per
 * worker (the droop backends hold one per round-eval).  The
 * overloads taking a PdnStepFactor only read the mesh.
 */
class PdnMesh
{
  public:
    /** Fatal on a non-positive size, pitch or conductance, or on
     *  negative storage. */
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

    /**
     * Solve KCL for the current load set through the mesh's DC
     * factor, built on first use and kept: after that a solve is
     * one forward and one back sweep of row-block products.  Decap
     * and bump inductance do not enter DC.
     */
    PdnSolution solve() const;

    /**
     * The same DC solve into @p sol (overwritten, never read) through
     * a caller-held factor of this mesh's DC matrix
     * (fatal on any other): the mesh backend's per-window path, where
     * one factor serves every round's mesh and a window allocates
     * nothing.
     */
    void solve(const PdnStepFactor &dc, PdnSolution &sol) const;

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
     * implicit equations directly through the mesh's factor for
     * @p dtSec, kept like solve()'s and rebuilt whenever the system
     * changes; the factor is bound to this mesh, never to @p state.
     * With decapFarad == 0 and bumpInductanceH == 0 the system is
     * the DC one, so the step reuses the DC factor and returns what
     * solve() does, bit for bit.
     */
    void stepTransient(double dtSec, PdnTransientState &state) const;

    /**
     * The same step through a caller-held factor of this mesh's
     * system (fatal on a factor of another geometry or storage): the
     * transient backend's path, where one factor serves every
     * round's mesh.
     */
    void stepTransient(const PdnStepFactor &factor,
                       PdnTransientState &state) const;

    /**
     * Max |KCL residual| of @p sol under the current load set [A]:
     * at every node, the bump branch's current in minus the load and
     * the sheet currents out -- an oracle independent of the factor.
     */
    double kclResidualMax(const PdnSolution &sol) const;

    /** True when a node is a bump (supply-connected) node. */
    bool isBump(int row, int col) const;

    const PdnMeshConfig &config() const { return cfg; }

  private:
    /** The mesh's own factor at @p dtSec, rebuilt unless the kept
     *  one matches. */
    const PdnStepFactor &ownFactor(double dtSec) const;

    /**
     * The one step every solve shares: build the right-hand side in
     * @p sol's voltages, solve it in place through @p f, then update
     * the bump observables and, when @p bumpA is not null, the bump
     * inductor currents (a DC solve has none).
     */
    void substitute(const PdnStepFactor &f, PdnSolution &sol,
                    double *bumpA) const;

    PdnMeshConfig cfg;
    std::vector<double> loadA;
    /** Flat bump node indices, row-major. */
    std::vector<int> bumpIdx;
    /** The factor of the last solve() or stepTransient(dt, state). */
    mutable std::optional<PdnStepFactor> factor;
};

} // namespace aim::power

#endif // AIM_POWER_PDNMESH_HH
