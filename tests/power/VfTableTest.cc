#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "power/VfTable.hh"
#include "sim/Runtime.hh"

using namespace aim::power;
namespace sim = aim::sim;

namespace
{

VfTable
table()
{
    return VfTable(defaultCalibration());
}

} // namespace

TEST(VfTable, LevelsMatchPaperRange)
{
    // Section 5.5.1: 20%..60% in 5% steps plus the 100% DVFS level.
    const auto levels = table().levels();
    ASSERT_EQ(levels.size(), 10u);
    EXPECT_EQ(levels.front(), 20);
    EXPECT_EQ(levels[levels.size() - 2], 60);
    EXPECT_EQ(levels.back(), 100);
    for (size_t i = 1; i + 1 < levels.size(); ++i)
        EXPECT_EQ(levels[i] - levels[i - 1], 5);
}

TEST(VfTable, FmaxMonotoneInVoltage)
{
    const VfTable t = table();
    double prev = -1.0;
    for (double v : {0.45, 0.55, 0.61, 0.68, 0.75}) {
        const double f = t.fMax(v);
        EXPECT_GT(f, prev);
        prev = f;
    }
}

TEST(VfTable, SignoffAnchor)
{
    // At the signoff effective voltage (vdd - 140 mV) the chip closes
    // timing exactly at nominal frequency.
    const VfTable t = table();
    EXPECT_NEAR(t.fMax(0.75 - 0.140), 1.0, 1e-9);
    EXPECT_NEAR(t.vMinTiming(1.0), 0.61, 1e-6);
}

TEST(VfTable, VminInvertsFmax)
{
    const VfTable t = table();
    for (double f : {0.9, 1.0, 1.1, 1.2}) {
        const double v = t.vMinTiming(f);
        EXPECT_NEAR(t.fMax(v), f, 1e-6);
    }
}

TEST(VfTable, DvfsNominalSafeAtWorstCase)
{
    // The signoff pair must tolerate Rtog = 100%.
    const VfTable t = table();
    const VfPair p = t.dvfsNominal();
    EXPECT_EQ(t.maxLevelPct(p), 100);
}

TEST(VfTable, LowerLevelsUnlockMorePairs)
{
    // A pair safe at level L is safe at every level below L, so pair
    // sets grow as the level drops (more aggressive levels exist at
    // lower assumed activity).
    const VfTable t = table();
    const auto levels = t.levels();
    for (size_t i = 1; i < levels.size(); ++i)
        EXPECT_GE(t.pairsAt(levels[i - 1]).size(),
                  t.pairsAt(levels[i]).size());
}

TEST(VfTable, EveryLevelHasAtLeastOnePair)
{
    const VfTable t = table();
    for (int l : t.levels())
        EXPECT_FALSE(t.pairsAt(l).empty()) << "level " << l;
}

TEST(VfTable, SprintBeatsDvfsFrequencyAtLowLevels)
{
    // IR-Booster's promise: at low Rtog levels the chip clocks above
    // nominal (Figure 9 "level up" direction).
    const VfTable t = table();
    const VfPair sprint = t.sprintPair(20);
    EXPECT_GT(sprint.fGhz, t.dvfsNominal().fGhz);
}

TEST(VfTable, LowPowerHoldsNominalFrequencyAtLowLevels)
{
    const VfTable t = table();
    const VfPair lp = t.lowPowerPair(25);
    EXPECT_GE(lp.fGhz, 1.0 - 1e-9);
    EXPECT_LT(lp.v, 0.75);
}

TEST(VfTable, LowPowerPairUsesLessPowerThanSprint)
{
    const VfTable t = table();
    const VfPair lp = t.lowPowerPair(30);
    const VfPair sp = t.sprintPair(30);
    EXPECT_LE(lp.v * lp.v * lp.fGhz, sp.v * sp.v * sp.fGhz + 1e-12);
}

TEST(VfTable, SafeLevelRoundsUp)
{
    const VfTable t = table();
    // Paper example: HRG = 47.5% -> safe level 50%.
    EXPECT_EQ(t.safeLevelFor(0.475), 50);
    EXPECT_EQ(t.safeLevelFor(0.50), 50);
    EXPECT_EQ(t.safeLevelFor(0.51), 55);
    EXPECT_EQ(t.safeLevelFor(0.10), 20);
}

TEST(VfTable, HrAboveSixtyRevertsToDvfs)
{
    // Section 5.5.1: groups with HRG > 60% revert to DVFS.
    const VfTable t = table();
    EXPECT_EQ(t.safeLevelFor(0.65), 100);
    EXPECT_EQ(t.safeLevelFor(0.92), 100);
}

TEST(VfTable, PairsSafeAtTheirLevel)
{
    const VfTable t = table();
    const IrModel ir(defaultCalibration());
    for (int l : t.levels())
        for (const VfPair &p : t.pairsAt(l)) {
            const double veff =
                ir.vEff(p.v, p.fGhz, static_cast<double>(l) / 100.0);
            EXPECT_GE(veff + 1e-9, t.vMinTiming(p.fGhz))
                << "level " << l << " pair " << p.v << "/" << p.fGhz;
        }
}

TEST(VfTable, MaxLevelConsistentWithPairSets)
{
    const VfTable t = table();
    for (int l : t.levels())
        for (const VfPair &p : t.pairsAt(l))
            EXPECT_GE(t.maxLevelPct(p), l);
}

TEST(VfTable, MemoMatchesDirectGridScan)
{
    // The table bisects the timing threshold once per grid frequency
    // and memoizes each level's sprint / low-power pair.  Every read
    // must equal the direct definitions: grid membership
    // vEff(v, f, level/100) >= vMinTiming(f) in grid order, the two
    // pair choices scanned over that set, and the runtime's
    // per-frequency thresholds.  An 80 mV lower voltage grid empties
    // the 100% level, which must stay empty rather than fail the
    // table's construction.
    Calibration low = defaultCalibration();
    for (double &v : low.vGrid)
        v -= 0.08;
    const Calibration kCals[] = {defaultCalibration(), low};
    for (const Calibration &cal : kCals) {
        const VfTable t(cal);
        const IrModel ir(cal);
        for (int l : t.levels()) {
            SCOPED_TRACE("level " + std::to_string(l));
            std::vector<VfPair> want;
            for (double v : cal.vGrid)
                for (double f : cal.fGrid)
                    if (ir.vEff(v, f, static_cast<double>(l) / 100.0) >=
                        t.vMinTiming(f))
                        want.push_back({v, f});
            EXPECT_EQ(t.pairsAt(l), want);
            if (want.empty())
                continue;
            VfPair sprint = want.front();
            for (const VfPair &p : want)
                if (p.fGhz > sprint.fGhz ||
                    (p.fGhz == sprint.fGhz && p.v > sprint.v))
                    sprint = p;
            EXPECT_EQ(t.sprintPair(l), sprint);
            const VfPair *lp = nullptr;
            for (const VfPair &p : want)
                if (p.fGhz + 1e-9 >= cal.fNominal &&
                    (!lp || p.v * p.v * p.fGhz <
                                lp->v * lp->v * lp->fGhz))
                    lp = &p;
            EXPECT_EQ(t.lowPowerPair(l), lp ? *lp : sprint);
            for (const VfPair &p : want)
                EXPECT_GE(t.maxLevelPct(p), l);
        }
        EXPECT_TRUE(t.pairsAt(42).empty());
        EXPECT_EQ(t.pairsAt(100).empty(), &cal != &kCals[0]);

        const sim::RuntimeEnv env(aim::pim::PimConfig{}, cal,
                                  sim::RunConfig{});
        ASSERT_EQ(env.vminByF.size(), std::size(cal.fGrid));
        for (double f : cal.fGrid)
            EXPECT_EQ(env.vminByF.at(f), t.vMinTiming(f)) << f;
    }
}
