#include "mapping/MappingScore.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "booster/LevelPolicy.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"

namespace aim::mapping
{

MappingEvaluator::MappingEvaluator(const pim::PimConfig &cfg,
                                   const power::VfTable &table,
                                   const power::PowerModel &pm,
                                   Objective objective, uint64_t seed)
    : cfg(cfg), table(table), pm(pm), mode(objective)
{
    // The paper's evaluator draws a 100-step input flip sequence from
    // a normal distribution (Section 5.6).
    util::Rng rng(seed);
    flipSeq.reserve(100);
    for (int i = 0; i < 100; ++i)
        flipSeq.push_back(
            std::clamp(rng.normal(0.55, 0.18), 0.0, 1.0));
    // evaluate() only counts the flips above a limit, so their order
    // is free: sorted, the count is one binary search.
    std::sort(flipSeq.begin(), flipSeq.end());
}

ScoreBreakdown
MappingEvaluator::evaluate(const Mapping &mapping,
                           const std::vector<Task> &tasks) const
{
    return ScoreState(*this, mapping, tasks).breakdown();
}

ScoreState::ScoreState(const MappingEvaluator &evaluator, Mapping mapping,
                       const std::vector<Task> &tasks)
    : eval(evaluator), tasks(tasks), map(std::move(mapping))
{
    const pim::PimConfig &cfg = eval.cfg;
    aim_assert(map.macros() == cfg.macros(),
               "mapping size != chip macros");

    // Sets live in dense arrays over the mapped Set ids [lo, hi]:
    // ascending index is ascending Set id, which fixes the
    // floating-point accumulation order.  A swap never changes which
    // tasks are mapped, so the range and each Set's cycles hold for
    // the state's lifetime.
    int lo = std::numeric_limits<int>::max();
    int hi = std::numeric_limits<int>::min();
    for (int t : map.taskOfMacro) {
        if (t < 0)
            continue;
        lo = std::min(lo, tasks[t].setId);
        hi = std::max(hi, tasks[t].setId);
    }
    firstSet = lo;
    const size_t set_count =
        hi >= lo ? static_cast<size_t>(hi - lo) + 1 : 0;
    const size_t group_count = static_cast<size_t>(cfg.groups);
    groups.assign(group_count, GroupTerms{});
    sets.assign(set_count, SetTerms{});
    hostCount.assign(set_count * group_count, 0);
    const double macs_per_cycle =
        static_cast<double>(cfg.macsPerMacroPerPass()) / cfg.inputBits;
    for (int m = 0; m < map.macros(); ++m) {
        const int t = map.taskOfMacro[m];
        if (t < 0)
            continue;
        const size_t k = setOf(t);
        SetTerms &s = sets[k];
        s.cycles = std::max(
            s.cycles, static_cast<double>(tasks[t].macs) / macs_per_cycle);
        ++s.tasks;
        ++hosts(k, Mapping::groupOf(m, cfg));
    }

    for (int g = 0; g < cfg.groups; ++g)
        scoreGroup(g);
    for (size_t k = 0; k < set_count; ++k)
        scoreSet(k);
    reduce();
}

void
ScoreState::swap(int m1, int m2)
{
    const int g1 = Mapping::groupOf(m1, eval.cfg);
    const int g2 = Mapping::groupOf(m2, eval.cfg);
    int &t1 = map.taskOfMacro[m1];
    int &t2 = map.taskOfMacro[m2];
    if (t1 >= 0) {
        --hosts(setOf(t1), g1);
        ++hosts(setOf(t1), g2);
    }
    if (t2 >= 0) {
        --hosts(setOf(t2), g2);
        ++hosts(setOf(t2), g1);
    }
    std::swap(t1, t2);

    // Only the two groups' terms move, and through them only the Sets
    // either group hosts after the swap: a Set one of them hosted
    // before and not after is a moved task's Set, now on the other.
    scoreGroup(g1);
    if (g2 != g1)
        scoreGroup(g2);
    for (size_t k = 0; k < sets.size(); ++k)
        if (hosts(k, g1) || hosts(k, g2))
            scoreSet(k);
    reduce();
}

void
ScoreState::scoreGroup(int g)
{
    const pim::PimConfig &cfg = eval.cfg;
    GroupTerms &gt = groups[static_cast<size_t>(g)];
    gt = GroupTerms{};
    // Worst HR pins the safe level; the mean Rtog of the group's tasks
    // under the flip sequence sets its power.
    double hr_acc = 0.0;
    for (int m = g * cfg.macrosPerGroup;
         m < (g + 1) * cfg.macrosPerGroup; ++m) {
        const int t = map.taskOfMacro[m];
        if (t < 0)
            continue;
        const Task &task = tasks[t];
        gt.worstHr =
            std::max(gt.worstHr, task.inputDetermined ? 1.0 : task.hr);
        hr_acc += task.inputDetermined ? 0.55 : task.hr;
        ++gt.hosted;
    }
    if (gt.worstHr <= 0.0)
        return; // vacant group: powered down

    // The evaluator assumes the initial aggressive level (Table 1),
    // which is what the group will mostly run at.
    const int safe = eval.table.safeLevelFor(gt.worstHr);
    gt.level = booster::initialALevel(safe);
    gt.pair = eval.mode == Objective::Sprint
                  ? eval.table.sprintPair(gt.level)
                  : eval.table.lowPowerPair(gt.level);

    // Expected IRFailure stalls: replay the flip sequence; the group
    // stalls every Set it hosts when its worst task exceeds its
    // level.  With w > 0, w * flip > limit is monotone in flip, so
    // over the sorted sequence the failing flips are a suffix.
    const double w = gt.worstHr;
    const double limit = static_cast<double>(gt.level) / 100.0;
    const auto &flips = eval.flipSeq;
    const auto failures =
        flips.end() -
        std::partition_point(flips.begin(), flips.end(), [&](double flip) {
            return !(w * flip > limit);
        });
    if (failures > 0) {
        const double stall =
            static_cast<double>(failures) / flips.size();
        gt.stall = stall * eval.table.calibration().recomputePenaltyCycles;
        gt.failing = true;
    }

    const double mean_rtog =
        gt.hosted > 0 ? 0.55 * hr_acc / gt.hosted : 0.0;
    gt.powerMw = eval.pm.macroPowerMw(gt.pair.v, gt.pair.fGhz, mean_rtog);
}

void
ScoreState::scoreSet(size_t k)
{
    SetTerms &s = sets[k];
    if (s.tasks == 0)
        return;
    // A Set syncs to its slowest group and takes the stalls of every
    // failing group hosting it, summed in ascending group order.  The
    // loop selects instead of branching on which groups host the Set;
    // the 0.0 a group that does not count adds leaves the sum's bits
    // unchanged.
    constexpr double kNone = std::numeric_limits<double>::infinity();
    s.freq = kNone;
    s.stalls = 0.0;
    s.stalled = false;
    for (int g = 0; g < static_cast<int>(groups.size()); ++g) {
        const bool hosted = hosts(k, g) != 0;
        const GroupTerms &gt = groups[static_cast<size_t>(g)];
        s.freq = std::min(s.freq, hosted ? gt.pair.fGhz : kNone);
        s.stalls += hosted ? gt.stall : 0.0;
        s.stalled |= hosted && gt.failing;
    }
    const double penalty =
        eval.table.calibration().recomputePenaltyCycles;
    const double f = std::max(s.freq, 1e-9);
    const double stall_frac = s.stalled ? s.stalls / penalty : 0.0;
    const double eff_cycles = s.cycles * (1.0 + stall_frac) + s.stalls;
    s.time = eff_cycles / f;
}

void
ScoreState::reduce()
{
    out = ScoreBreakdown{};
    for (const SetTerms &s : sets) {
        if (s.tasks == 0)
            continue;
        out.makespanCycles = std::max(out.makespanCycles, s.time);
        out.stallCycles += s.stalls;
    }

    // Energy: active groups burn their operating-point power for the
    // time their sets keep them busy.
    double power_acc = 0.0;
    int active_groups = 0;
    for (const GroupTerms &gt : groups) {
        if (gt.worstHr <= 0.0)
            continue;
        power_acc += gt.powerMw * gt.hosted;
        ++active_groups;
        out.energy += gt.powerMw * gt.hosted * out.makespanCycles;
    }
    out.meanGroupPowerMw =
        active_groups > 0 ? power_acc / active_groups : 0.0;

    out.score = eval.mode == Objective::Sprint
                    ? out.makespanCycles * (1.0 + 1e-6 * out.energy)
                    : out.energy * (1.0 + 0.05 * out.makespanCycles /
                                              (out.makespanCycles + 1.0));
}

} // namespace aim::mapping
