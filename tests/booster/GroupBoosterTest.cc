#include <vector>

#include <gtest/gtest.h>

#include "booster/GroupBooster.hh"
#include "util/Rng.hh"

using namespace aim::booster;
using aim::power::VfTable;
using aim::power::defaultCalibration;

namespace
{

struct Fixture
{
    VfTable table{defaultCalibration()};

    GroupBooster make(int safe, int beta = 50,
                      BoostMode mode = BoostMode::Sprint,
                      bool aggressive = true)
    {
        BoosterConfig cfg;
        cfg.beta = beta;
        cfg.mode = mode;
        cfg.aggressiveAdjustment = aggressive;
        return GroupBooster(table, cfg, safe);
    }
};

} // namespace

TEST(GroupBooster, StartsAtInitialALevel)
{
    Fixture f;
    auto gb = f.make(40);
    EXPECT_EQ(gb.aLevel(), 30); // Table 1
    EXPECT_EQ(gb.level(), 30);
    EXPECT_EQ(gb.safeLevel(), 40);
}

TEST(GroupBooster, FailureRetreatsToSafeLevel)
{
    Fixture f;
    auto gb = f.make(40);
    const auto d = gb.step(true);
    EXPECT_EQ(d.level, 40);
    EXPECT_TRUE(d.recompute);
    EXPECT_EQ(gb.failures(), 1);
    EXPECT_EQ(gb.safeCounter(), 0);
}

TEST(GroupBooster, RapidFailuresDemoteALevel)
{
    Fixture f;
    auto gb = f.make(40, 50);
    gb.step(true); // first failure: counter was 0 < 10 -> demote
    EXPECT_EQ(gb.aLevel(), 35);
    // Run 5 safe cycles (< 0.2 * beta = 10), then fail again.
    for (int i = 0; i < 5; ++i)
        gb.step(false);
    gb.step(true);
    EXPECT_EQ(gb.aLevel(), 40); // clamped at safe next
    EXPECT_EQ(gb.demotions(), 2);
}

TEST(GroupBooster, SpacedFailuresDoNotDemote)
{
    Fixture f;
    auto gb = f.make(40, 50);
    // 20 safe cycles (> 0.2 beta) before the failure.
    for (int i = 0; i < 20; ++i)
        gb.step(false);
    gb.step(true);
    EXPECT_EQ(gb.aLevel(), 30);
    EXPECT_EQ(gb.demotions(), 0);
}

TEST(GroupBooster, ReturnsToALevelAfterBeta)
{
    Fixture f;
    auto gb = f.make(40, 20);
    gb.step(false); // establish some history
    for (int i = 0; i < 25; ++i)
        gb.step(false);
    gb.step(true); // to safe, no demotion (counter 26 > 4)
    EXPECT_EQ(gb.level(), 40);
    // beta safe cycles restore the aggressive level.
    for (int i = 0; i < 20; ++i)
        gb.step(false);
    EXPECT_EQ(gb.level(), 30);
}

TEST(GroupBooster, PromotesAfterTwoBeta)
{
    Fixture f;
    auto gb = f.make(40, 20);
    for (int i = 0; i < 41; ++i)
        gb.step(false);
    // counter exceeded 2*beta: one promotion, counter reset to beta.
    EXPECT_EQ(gb.aLevel(), 25);
    EXPECT_EQ(gb.level(), 25);
    EXPECT_EQ(gb.safeCounter(), 20);
    EXPECT_EQ(gb.promotions(), 1);
}

TEST(GroupBooster, PromotionFloorsAtMinLevel)
{
    Fixture f;
    auto gb = f.make(25, 10);
    // a0 = 20 already at the floor; long safe run keeps it there.
    for (int i = 0; i < 200; ++i)
        gb.step(false);
    EXPECT_EQ(gb.aLevel(), 20);
}

TEST(GroupBooster, FreqSyncPinsLevelAndResetsCounter)
{
    Fixture f;
    auto gb = f.make(40, 20);
    for (int i = 0; i < 7; ++i)
        gb.step(false);
    EXPECT_EQ(gb.safeCounter(), 7);
    const auto d = gb.step(false, true, 35);
    EXPECT_EQ(d.level, 35);
    EXPECT_EQ(gb.safeCounter(), 0);
    EXPECT_FALSE(d.recompute);
}

TEST(GroupBooster, NonAggressiveStaysAtSafeLevel)
{
    Fixture f;
    auto gb = f.make(40, 50, BoostMode::Sprint, false);
    EXPECT_EQ(gb.level(), 40);
    for (int i = 0; i < 300; ++i)
        gb.step(false);
    EXPECT_EQ(gb.level(), 40);
    EXPECT_EQ(gb.promotions(), 0);
}

TEST(GroupBooster, VfSwitchFlagOnLevelChange)
{
    Fixture f;
    auto gb = f.make(40, 20);
    const auto quiet = gb.step(false);
    EXPECT_FALSE(quiet.vfSwitched);
    const auto fail = gb.step(true);
    // 30 -> 40 changes the operating pair.
    EXPECT_TRUE(fail.vfSwitched);
}

TEST(GroupBooster, SprintPairFasterThanLowPowerPair)
{
    Fixture f;
    auto sprint = f.make(30, 50, BoostMode::Sprint);
    auto lp = f.make(30, 50, BoostMode::LowPower);
    EXPECT_GE(sprint.pair().fGhz, lp.pair().fGhz);
    EXPECT_LE(lp.pair().v * lp.pair().v * lp.pair().fGhz,
              sprint.pair().v * sprint.pair().v * sprint.pair().fGhz);
}

TEST(GroupBooster, Safe100BehavesLikeGuardedDvfs)
{
    Fixture f;
    auto gb = f.make(100, 20);
    EXPECT_EQ(gb.aLevel(), 60); // Table 1
    gb.step(true);
    EXPECT_EQ(gb.level(), 100);
    // Immediately failing again demotes toward DVFS permanently.
    gb.step(true);
    EXPECT_EQ(gb.aLevel(), 100);
    for (int i = 0; i < 25; ++i)
        gb.step(false);
    EXPECT_EQ(gb.level(), 100);
}

class BetaSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BetaSweep, PromotionCadenceScalesWithBeta)
{
    // Property: with no failures, the first promotion happens exactly
    // at counter = 2*beta + 1.
    Fixture f;
    const int beta = GetParam();
    auto gb = f.make(40, beta);
    int steps = 0;
    while (gb.promotions() == 0 && steps < 10000) {
        gb.step(false);
        ++steps;
    }
    EXPECT_EQ(steps, 2 * beta + 1);
}

INSTANTIATE_TEST_SUITE_P(Cadence, BetaSweep,
                         ::testing::Values(10, 20, 50, 90));

TEST(GroupBooster, RandomWalkDecisionsCarryTheirLevelsPair)
{
    // The booster looks a pair up only when its level moves.  Over a
    // random walk of failures, Set syncs to any level with pairs and
    // quiet windows, in both modes, with and without aggressive
    // adjustment, every decision must still carry its level's pair,
    // and vfSwitched must say exactly whether the pair moved.
    Fixture f;
    std::vector<int> sync_levels;
    for (const int l : f.table.levels())
        if (!f.table.pairsAt(l).empty())
            sync_levels.push_back(l);
    ASSERT_FALSE(sync_levels.empty());
    for (const auto mode : {BoostMode::Sprint, BoostMode::LowPower}) {
        for (const bool aggressive : {true, false}) {
            for (const int safe : {100, 60, 40, 25}) {
                SCOPED_TRACE(testing::Message()
                             << (mode == BoostMode::Sprint ? "sprint"
                                                           : "low power")
                             << (aggressive ? ", aggressive" : "")
                             << ", safe " << safe);
                auto gb = f.make(safe, 10, mode, aggressive);
                const auto pair_of = [&](int level) {
                    return mode == BoostMode::Sprint
                               ? f.table.sprintPair(level)
                               : f.table.lowPowerPair(level);
                };
                aim::util::Rng rng(static_cast<uint64_t>(safe) * 7 +
                                   (aggressive ? 1 : 0));
                aim::power::VfPair prev = gb.pair();
                ASSERT_EQ(prev, pair_of(gb.level()));
                long switches = 0;
                long syncs = 0;
                for (int i = 0; i < 4000; ++i) {
                    const bool fail = rng.bernoulli(0.04);
                    const bool sync = rng.bernoulli(0.08);
                    const int level = sync_levels[static_cast<size_t>(
                        rng.uniformInt(
                            0, static_cast<int64_t>(sync_levels.size()) -
                                   1))];
                    const auto d = gb.step(fail, sync, level);
                    syncs += sync && !fail;
                    ASSERT_EQ(d.level, gb.level()) << "step " << i;
                    ASSERT_EQ(d.pair, pair_of(d.level)) << "step " << i;
                    ASSERT_EQ(d.pair, gb.pair()) << "step " << i;
                    ASSERT_EQ(d.vfSwitched, !(d.pair == prev))
                        << "step " << i;
                    switches += d.vfSwitched;
                    prev = d.pair;
                }
                EXPECT_GT(gb.failures(), 0);
                EXPECT_GT(syncs, 0);
                EXPECT_GT(switches, 0);
                if (aggressive) {
                    EXPECT_GT(gb.promotions(), 0);
                    EXPECT_GT(gb.demotions(), 0);
                }
            }
        }
    }
}
