/**
 * @file
 * IR-Booster voltage-frequency pair table (paper Figure 9, Section
 * 5.5.1).  Every (V, f) pair on the grid is validated against each
 * Rtog *level*: the pair belongs to level L when the supply minus the
 * Equation-2 drop at activity L still meets the alpha-power timing
 * requirement of f.  DVFS corresponds to the single 100% level (signed
 * off at worst-case activity); IR-Booster unlocks the 20%..60% levels,
 * allowing lower voltage at the same frequency or higher frequency at
 * the same voltage.
 *
 * Construction bisects the timing threshold vMinTiming once per grid
 * frequency (5 bisections, not one per (level, V, f) candidate) and
 * memoizes each level's pair set and its sprint / low-power choice,
 * so every lookup the window engine, the boosters and the mapping
 * evaluator make afterwards is a table read.  The memo holds exactly
 * the values the direct definitions give (tests/power/VfTableTest
 * MemoMatchesDirectGridScan); a level whose pair set is empty stays
 * empty, and asking it for a pair still fails at the call.
 */

#ifndef AIM_POWER_VFTABLE_HH
#define AIM_POWER_VFTABLE_HH

#include <vector>

#include "power/Calibration.hh"
#include "power/IrModel.hh"

namespace aim::power
{

/** One voltage-frequency operating point. */
struct VfPair
{
    double v = 0.0;    ///< supply voltage [V]
    double fGhz = 0.0; ///< clock frequency [GHz]

    bool operator==(const VfPair &o) const = default;
};

/** The validated V-f pair sets per Rtog level. */
class VfTable
{
  public:
    explicit VfTable(const Calibration &cal);

    /**
     * Maximum frequency [GHz] the logic sustains at effective supply
     * @p veff (alpha-power delay law, anchored so the signoff corner
     * V = vddNominal - worst drop delivers fNominal).
     */
    double fMax(double veff) const;

    /** Minimum effective supply [V] required to close timing at f
     * (a 64-step bisection on every call). */
    double vMinTiming(double fGhz) const;

    /** vMinTiming of each calibration grid frequency, in fGrid
     * order, bisected once at construction. */
    const std::vector<double> &gridVMinTiming() const
    {
        return gridVmin;
    }

    /** All levels, ascending, ending with 100 (the DVFS level). */
    std::vector<int> levels() const;

    /** Safe pairs of a level (empty if the level is unknown). */
    const std::vector<VfPair> &pairsAt(int levelPct) const;

    /** Highest Rtog percentage a pair tolerates (0 if none). */
    int maxLevelPct(const VfPair &p) const;

    /**
     * Map an HR value to its safe level: the nearest level at or above
     * HR (Section 5.5.1).  HR above the top level reverts to DVFS
     * (100).
     */
    int safeLevelFor(double hr) const;

    /** Sprint-mode pair of a level: max frequency, then max voltage
     * (memoized). */
    VfPair sprintPair(int levelPct) const;

    /**
     * Low-power-mode pair of a level: minimum power among pairs that
     * hold the nominal frequency; if none can, the fastest pair
     * (memoized).
     */
    VfPair lowPowerPair(int levelPct) const;

    /** The DVFS signoff operating point (nominal V and f). */
    VfPair dvfsNominal() const;

    const Calibration &calibration() const { return cal; }

  private:
    /** One level's memo: its safe pairs in grid order (V outer, f
     * inner) and, when there are any, its two mode pairs. */
    struct Level
    {
        int pct = 0;
        std::vector<VfPair> pairs;
        VfPair sprint;
        VfPair lowPower;
    };

    /** The memo of a level (nullptr if the level is unknown). */
    const Level *findLevel(int levelPct) const;

    Calibration cal;
    IrModel ir;
    std::vector<double> gridVmin;
    std::vector<Level> levelMemo;
    std::vector<VfPair> empty;
};

} // namespace aim::power

#endif // AIM_POWER_VFTABLE_HH
