#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "mapping/Mappers.hh"
#include "power/PowerModel.hh"
#include "power/VfTable.hh"

using namespace aim::mapping;
using aim::power::PowerModel;
using aim::power::VfTable;
using aim::power::defaultCalibration;

namespace
{

struct Fixture
{
    aim::pim::PimConfig cfg;
    VfTable table{defaultCalibration()};
    PowerModel pm{defaultCalibration()};

    Fixture()
    {
        cfg.groups = 4;
        cfg.macrosPerGroup = 4;
    }

    MappingEvaluator evaluator(Objective obj = Objective::Sprint) const
    {
        return MappingEvaluator(cfg, table, pm, obj, 3);
    }

    /** Mixed workload: a low-HR conv set and a high-HR attention set
     * (the interference scenario of Figure 21). */
    std::vector<Task> mixedTasks() const
    {
        std::vector<Task> tasks;
        for (int i = 0; i < 6; ++i) {
            Task t;
            t.layerName = "conv";
            t.type = aim::workload::OpType::Conv;
            t.setId = 0;
            t.hr = 0.28;
            t.macs = 4'000'000;
            tasks.push_back(t);
        }
        for (int i = 0; i < 6; ++i) {
            Task t;
            t.layerName = "qkt";
            t.type = aim::workload::OpType::QkT;
            t.setId = 1;
            t.hr = 0.55;
            t.inputDetermined = true;
            t.macs = 4'000'000;
            tasks.push_back(t);
        }
        return tasks;
    }
};

} // namespace

TEST(Mappers, SequentialFillsInOrder)
{
    Fixture f;
    const auto tasks = f.mixedTasks();
    const auto m = mapSequential(tasks, f.cfg);
    EXPECT_TRUE(m.valid(tasks.size()));
    EXPECT_EQ(m.taskOfMacro[0], 0);
    EXPECT_EQ(m.taskOfMacro[11], 11);
    EXPECT_EQ(m.taskOfMacro[12], -1);
}

TEST(Mappers, ZigzagReversesOddGroups)
{
    Fixture f;
    const auto tasks = f.mixedTasks();
    const auto m = mapZigzag(tasks, f.cfg);
    EXPECT_TRUE(m.valid(tasks.size()));
    // Group 1 is filled right-to-left: macro 7 gets task 4.
    EXPECT_EQ(m.taskOfMacro[7], 4);
    EXPECT_EQ(m.taskOfMacro[4], 7);
}

TEST(Mappers, RandomIsValidAndSeedStable)
{
    Fixture f;
    const auto tasks = f.mixedTasks();
    aim::util::Rng r1(9);
    aim::util::Rng r2(9);
    const auto a = mapRandom(tasks, f.cfg, r1);
    const auto b = mapRandom(tasks, f.cfg, r2);
    EXPECT_TRUE(a.valid(tasks.size()));
    EXPECT_EQ(a.taskOfMacro, b.taskOfMacro);
}

TEST(Mappers, TooManyTasksDie)
{
    Fixture f;
    std::vector<Task> tasks(17);
    EXPECT_DEATH(mapSequential(tasks, f.cfg), "exceed");
}

TEST(Mappers, HrAwareProducesValidMapping)
{
    Fixture f;
    const auto tasks = f.mixedTasks();
    const auto eval = f.evaluator();
    const auto m = mapHrAware(tasks, f.cfg, eval);
    EXPECT_TRUE(m.valid(tasks.size()));
}

TEST(Mappers, HrAwareNotWorseThanSequential)
{
    Fixture f;
    const auto tasks = f.mixedTasks();
    for (auto obj : {Objective::Sprint, Objective::LowPower}) {
        const auto eval = f.evaluator(obj);
        const auto seq = mapSequential(tasks, f.cfg);
        const auto hra = mapHrAware(tasks, f.cfg, eval);
        EXPECT_LE(eval.evaluate(hra, tasks).score,
                  eval.evaluate(seq, tasks).score + 1e-9);
    }
}

TEST(Mappers, HrAwareSeparatesInterferingSets)
{
    // The annealer should avoid pinning low-HR conv groups to the
    // attention tasks' 100% level: count groups hosting both kinds.
    Fixture f;
    const auto tasks = f.mixedTasks();
    const auto eval = f.evaluator(Objective::LowPower);
    const auto m = mapHrAware(tasks, f.cfg, eval);

    auto mixed_groups = [&](const Mapping &map) {
        int mixed = 0;
        for (int g = 0; g < f.cfg.groups; ++g) {
            bool conv = false;
            bool attn = false;
            for (int i = 0; i < f.cfg.macrosPerGroup; ++i) {
                const int t =
                    map.taskOfMacro[g * f.cfg.macrosPerGroup + i];
                if (t < 0)
                    continue;
                conv |= !tasks[t].inputDetermined;
                attn |= tasks[t].inputDetermined;
            }
            mixed += conv && attn;
        }
        return mixed;
    };
    // Sequential mixes in the middle group; HR-aware must not be
    // worse.
    EXPECT_LE(mixed_groups(m),
              mixed_groups(mapSequential(tasks, f.cfg)));
}

TEST(Mappers, EvaluatorScoresInterferenceHigher)
{
    // A hand-built segregated mapping must score no worse than a
    // hand-built interleaved one.
    Fixture f;
    const auto tasks = f.mixedTasks();
    const auto eval = f.evaluator(Objective::LowPower);

    Mapping segregated;
    segregated.taskOfMacro.assign(16, -1);
    for (int i = 0; i < 6; ++i)
        segregated.taskOfMacro[i] = i; // conv in groups 0-1
    for (int i = 0; i < 6; ++i)
        segregated.taskOfMacro[8 + i] = 6 + i; // attn in groups 2-3

    Mapping interleaved;
    interleaved.taskOfMacro.assign(16, -1);
    for (int i = 0; i < 6; ++i)
        interleaved.taskOfMacro[2 * i] = i;
    for (int i = 0; i < 6; ++i)
        interleaved.taskOfMacro[2 * i + 1] = 6 + i;

    EXPECT_LE(eval.evaluate(segregated, tasks).score,
              eval.evaluate(interleaved, tasks).score);
}

TEST(Mappers, DispatcherCoversAllKinds)
{
    Fixture f;
    const auto tasks = f.mixedTasks();
    const auto eval = f.evaluator();
    for (auto kind : {MapperKind::Sequential, MapperKind::Zigzag,
                      MapperKind::Random, MapperKind::HrAware}) {
        const auto m = mapWith(kind, tasks, f.cfg, eval);
        EXPECT_TRUE(m.valid(tasks.size())) << mapperName(kind);
    }
}

TEST(Mappers, Names)
{
    EXPECT_STREQ(mapperName(MapperKind::HrAware), "HR-aware");
    EXPECT_STREQ(mapperName(MapperKind::Zigzag), "Zigzag");
}

TEST(MappingEvaluator, VacantChipScoresZeroMakespan)
{
    Fixture f;
    std::vector<Task> none;
    const auto eval = f.evaluator();
    Mapping m;
    m.taskOfMacro.assign(16, -1);
    const auto s = eval.evaluate(m, none);
    EXPECT_DOUBLE_EQ(s.makespanCycles, 0.0);
    EXPECT_DOUBLE_EQ(s.energy, 0.0);
}

TEST(MappingEvaluator, StallsGrowWithAggressiveHr)
{
    // A group whose worst HR exceeds its assumed level accumulates
    // expected recompute stalls.
    Fixture f;
    std::vector<Task> tasks;
    Task t;
    t.layerName = "hot";
    t.setId = 0;
    t.hr = 0.58; // safe 60, a-level 40: flips above 0.69 threshold
    t.macs = 1'000'000;
    tasks.push_back(t);
    const auto eval = f.evaluator();
    const auto m = mapSequential(tasks, f.cfg);
    const auto s = eval.evaluate(m, tasks);
    EXPECT_GE(s.stallCycles, 0.0);
}

namespace
{

/**
 * The golden workload: 50 tasks on the default 64-macro chip (14
 * macros vacant), Set ids with gaps and no Set 0, input-determined
 * tiles, and a hot task in every fifth slot whose groups stall.
 */
std::vector<Task>
goldenTasks()
{
    const int sets[] = {3, 4, 7, 12, 13, 20, 31};
    aim::util::Rng rng(2024);
    std::vector<Task> tasks;
    for (int i = 0; i < 50; ++i) {
        Task t;
        t.setId = sets[rng.uniformInt(0, 6)];
        t.hr = i % 5 == 0 ? rng.uniform(0.60, 0.80)
                          : rng.uniform(0.15, 0.50);
        t.inputDetermined = rng.bernoulli(0.15);
        t.macs = rng.uniformInt(100'000, 5'000'000);
        tasks.push_back(t);
    }
    return tasks;
}

void
printBreakdown(const ScoreBreakdown &s)
{
    std::printf("    {%.17g, %.17g, %.17g, %.17g, %.17g},\n", s.score,
                s.makespanCycles, s.energy, s.stallCycles,
                s.meanGroupPowerMw);
}

} // namespace

TEST(MappingEvaluator, ScoreGolden)
{
    // Exact scores of the evaluator, captured from the std::map-based
    // implementation: {score, makespanCycles, energy, stallCycles,
    // meanGroupPowerMw} for the sequential, random and HR-aware
    // mappings of goldenTasks() under Sprint, then LowPower.  Only
    // the physical directions are checked elsewhere; these pin the
    // bits, including the accumulation order over Sets.
    aim::pim::PimConfig cfg;
    const VfTable table{defaultCalibration()};
    const PowerModel pm{defaultCalibration()};
    const auto tasks = goldenTasks();
    const MappingEvaluator sprint(cfg, table, pm, Objective::Sprint, 5);
    const MappingEvaluator low(cfg, table, pm, Objective::LowPower, 5);

    aim::util::Rng rng(77);
    const Mapping hra = mapHrAware(tasks, cfg, sprint);
    const Mapping maps[] = {mapSequential(tasks, cfg),
                            mapRandom(tasks, cfg, rng), hra};

    const ScoreBreakdown golden[] = {
        {24851.772937337922, 6711.59327980324, 2702812.7154431036,
         114.23999999999999, 30.977543148263521},
        {18170.717632367359, 5552.6513445818864, 2272439.8678656118,
         124.16000000000001, 25.578319784149059},
        {11860.579479544907, 4317.9413293909138, 1746813.4869766636,
         108.64000000000001, 26.96985057959041},
        {2552061.3320734291, 7248.5207421874993, 2430550.5672374088,
         114.23999999999999, 25.793597742069515},
        {2065373.9677388566, 5996.8634521484373, 1967038.4433952458,
         124.16000000000001, 20.500700690151348},
        {1632162.9701682641, 4663.3766357421873, 1554456.7935613317,
         108.64000000000001, 22.222192415216689},
    };
    const std::vector<int> golden_hra = {
        0,  42, 39, 3,  14, -1, 4,  35, 47, 28, 10, 25, -1,
        -1, -1, -1, 29, 7,  13, 41, 6,  24, 22, 48, -1, 5,
        8,  19, 44, 36, 30, -1, 17, 33, 26, 23, -1, 21, 34,
        15, 40, 32, 43, 31, 11, 45, 46, 16, 27, 9,  -1, -1,
        37, -1, -1, 2,  -1, -1, 18, 49, 12, 38, 1,  20};

    int k = 0;
    bool stalled = false;
    for (const MappingEvaluator *eval : {&sprint, &low}) {
        for (const Mapping &m : maps) {
            const ScoreBreakdown s = eval->evaluate(m, tasks);
            const ScoreBreakdown &g = golden[k++];
            EXPECT_EQ(s.score, g.score) << "case " << k - 1;
            EXPECT_EQ(s.makespanCycles, g.makespanCycles)
                << "case " << k - 1;
            EXPECT_EQ(s.energy, g.energy) << "case " << k - 1;
            EXPECT_EQ(s.stallCycles, g.stallCycles) << "case " << k - 1;
            EXPECT_EQ(s.meanGroupPowerMw, g.meanGroupPowerMw)
                << "case " << k - 1;
            stalled |= s.stallCycles > 0.0;
        }
    }
    EXPECT_TRUE(stalled) << "the golden workload must exercise stalls";
    EXPECT_EQ(hra.taskOfMacro, golden_hra);

    if (::testing::Test::HasFailure()) {
        std::printf("observed breakdowns:\n");
        for (const MappingEvaluator *eval : {&sprint, &low})
            for (const Mapping &m : maps)
                printBreakdown(eval->evaluate(m, tasks));
        std::printf("observed HR-aware taskOfMacro:\n   ");
        for (int t : hra.taskOfMacro)
            std::printf(" %d,", t);
        std::printf("\n");
    }
}

TEST(MappingEvaluator, SwappedStateMatchesFromScratchScore)
{
    // The annealer rescores each candidate by applying its swap to one
    // ScoreState and swaps back on rejection.  Random swap-and-undo
    // walks, any two macros (same group and vacant pairs included),
    // must keep every field equal to a from-scratch evaluate() of the
    // current mapping: the golden workload (vacant macros, input-
    // determined tiles, sparse Set ids, stalling groups), one Set
    // spread over every group, and an all-vacant chip.
    aim::pim::PimConfig cfg;
    const VfTable table{defaultCalibration()};
    const PowerModel pm{defaultCalibration()};
    const auto golden = goldenTasks();
    std::vector<Task> spread = golden;
    for (size_t i = 0; i < spread.size(); ++i)
        spread[i].setId = i % 10 == 0 ? 5 : 9;
    const std::vector<Task> none;
    aim::util::Rng rng(5);
    Mapping vacant;
    vacant.taskOfMacro.assign(static_cast<size_t>(cfg.macros()), -1);
    const std::pair<const std::vector<Task> *, Mapping> cases[] = {
        {&golden, mapSequential(golden, cfg)},
        {&golden, mapRandom(golden, cfg, rng)},
        {&spread, mapRandom(spread, cfg, rng)},
        {&none, vacant},
    };

    long moved = 0;
    for (const Objective obj : {Objective::Sprint, Objective::LowPower}) {
        const MappingEvaluator eval(cfg, table, pm, obj, 9);
        for (size_t c = 0; c < std::size(cases); ++c) {
            const auto &[tasks, start] = cases[c];
            ScoreState state(eval, start, *tasks);
            const auto expect_fresh = [&](int step) {
                const ScoreBreakdown got = state.breakdown();
                const ScoreBreakdown want =
                    eval.evaluate(state.mapping(), *tasks);
                EXPECT_EQ(got.score, want.score) << c << " @" << step;
                EXPECT_EQ(got.makespanCycles, want.makespanCycles)
                    << c << " @" << step;
                EXPECT_EQ(got.energy, want.energy) << c << " @" << step;
                EXPECT_EQ(got.stallCycles, want.stallCycles)
                    << c << " @" << step;
                EXPECT_EQ(got.meanGroupPowerMw, want.meanGroupPowerMw)
                    << c << " @" << step;
            };
            expect_fresh(-1);
            for (int step = 0;
                 step < 300 && !::testing::Test::HasFailure(); ++step) {
                const int m1 =
                    static_cast<int>(rng.uniformInt(0, cfg.macros() - 1));
                const int m2 =
                    static_cast<int>(rng.uniformInt(0, cfg.macros() - 1));
                const ScoreBreakdown before = state.breakdown();
                state.swap(m1, m2);
                expect_fresh(step);
                moved += state.breakdown().score != before.score;
                if (rng.bernoulli(0.5)) {
                    state.swap(m1, m2);
                    expect_fresh(step);
                    EXPECT_EQ(state.breakdown().score, before.score)
                        << c << " @" << step;
                }
            }
            EXPECT_TRUE(state.mapping().valid(tasks->size())) << c;
        }
    }
    EXPECT_GT(moved, 100) << "the walks must move the score";
}
