/**
 * @file
 * The window kernel's caches against the state they stand for.  The
 * test steps a real round (ResNet18's first compiled round under the
 * default options: HR-aware mapping, booster, Analytic droop) window
 * by window, the way Runtime::runRound does, and after every window
 * checks that:
 *   - anyRemaining() matches a scan of the Sets;
 *   - every active group's monitor is programmed for its current
 *     effective frequency;
 *   - findSet() finds every hosted Set and no other.
 * The round must see IR failures and V-f switches, so the caches are
 * refreshed along the way, and its counters must match Runtime::run.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "aim/Aim.hh"
#include "sim/ChipState.hh"
#include "sim/WindowKernel.hh"
#include "workload/ModelZoo.hh"

using namespace aim;

TEST(WindowKernel, CachesTrackResNet18RoundZero)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const AimOptions opts;
    const CompiledModel art = AimPipeline(cfg, cal).compile(
        workload::modelByName("ResNet18"), opts);
    ASSERT_FALSE(art.rounds.empty());
    const sim::Round &round = art.rounds.front();
    const sim::RunConfig rcfg = runConfigFor(opts);
    ASSERT_TRUE(rcfg.useBooster);
    const sim::RuntimeEnv env(cfg, cal, rcfg);

    // Round 0 of Runtime::run(rounds, stream, seed): toggle
    // statistics on the run seed, mapping and RNG on seed + 1.
    const uint64_t seed = rcfg.seed;
    const auto toggles =
        pim::estimateToggleStats(art.stream, cfg.rows, 200, seed);
    const mapping::MappingEvaluator eval(
        cfg, env.table, env.pm,
        rcfg.boost.mode == booster::BoostMode::Sprint
            ? mapping::Objective::Sprint
            : mapping::Objective::LowPower,
        seed + 1);
    const auto map =
        mapping::mapWith(rcfg.mapper, round.tasks, cfg, eval, seed + 1);
    util::Rng rng(seed + 1);
    sim::ChipState state(cfg, cal, env.table, rcfg.boost,
                         rcfg.useBooster, round, map, toggles, rng);
    const auto droop = env.backend->newEval(state.activeMacroIds());
    sim::WindowKernel kernel(cfg, cal, rcfg.useBooster, env.pm,
                             env.vminByF, env.recomputeStall,
                             env.switchStall);
    ASSERT_FALSE(state.sets.empty());
    const int unhosted = state.sets.back().id + 1;

    sim::RunReport rep;
    sim::WindowStats stats;
    long windows = 0;
    while (state.anyRemaining()) {
        ASSERT_LT(windows, rcfg.maxWindowsPerRound);
        kernel.step(state, *droop, rng, rep, stats);
        ++windows;
        SCOPED_TRACE(testing::Message() << "window " << windows);

        ASSERT_EQ(state.anyRemaining(),
                  std::any_of(state.sets.begin(), state.sets.end(),
                              [](const sim::SetState &ss) {
                                  return ss.remaining > 0;
                              }));
        for (size_t g = 0; g < state.groups.size(); ++g) {
            const sim::GroupState &gs = state.groups[g];
            if (!gs.active)
                continue;
            ASSERT_EQ(gs.monitor->threshold(),
                      env.vminByF.at(gs.fEff) -
                          cal.monitorGuardMv / 1000.0)
                << "group " << g;
        }
        for (const sim::SetState &ss : state.sets)
            ASSERT_EQ(state.findSet(ss.id), &ss) << "Set " << ss.id;
        ASSERT_EQ(state.findSet(unhosted), nullptr);
    }
    EXPECT_GT(rep.failures, 0);
    EXPECT_GT(rep.vfSwitches, 0);

    // The replay is round 0 of the real run, window for window.
    const sim::Runtime rt(cfg, cal, rcfg);
    const auto want = rt.run({round}, art.stream, seed);
    EXPECT_EQ(rep.failures, want.failures);
    EXPECT_EQ(rep.vfSwitches, want.vfSwitches);
    EXPECT_EQ(rep.usefulWindows, want.usefulWindows);
    EXPECT_EQ(rep.stallWindows, want.stallWindows);
}
