#include "mapping/MappingScore.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
    EvalScratch scratch;
    return evaluate(mapping, tasks, scratch);
}

ScoreBreakdown
MappingEvaluator::evaluate(const Mapping &mapping,
                           const std::vector<Task> &tasks,
                           EvalScratch &scratch) const
{
    aim_assert(mapping.macros() == cfg.macros(),
               "mapping size != chip macros");

    groupWorstHr(mapping, tasks, cfg, scratch.worstHr);
    const std::vector<double> &worst_hr = scratch.worstHr;

    // Group operating points: the worst task pins the safe level; the
    // evaluator assumes the initial aggressive level (Table 1), which
    // is what the group will mostly run at.
    const auto &cal = table.calibration();
    std::vector<int> &group_level = scratch.groupLevel;
    std::vector<power::VfPair> &group_pair = scratch.groupPair;
    group_level.assign(static_cast<size_t>(cfg.groups), 0);
    group_pair.assign(static_cast<size_t>(cfg.groups), power::VfPair{});
    for (int g = 0; g < cfg.groups; ++g) {
        if (worst_hr[g] <= 0.0)
            continue; // vacant group: powered down
        const int safe = table.safeLevelFor(worst_hr[g]);
        const int level = booster::initialALevel(safe);
        group_level[g] = level;
        group_pair[g] = mode == Objective::Sprint
                            ? table.sprintPair(level)
                            : table.lowPowerPair(level);
    }

    // Per-set work and frequency (sets sync to their slowest group),
    // in dense arrays over the mapped Set ids [lo, hi]: the annealer
    // evaluates hundreds of candidates per round, so no per-Set node
    // allocation.  Ascending index is ascending Set id, which fixes
    // the floating-point accumulation order.
    int lo = std::numeric_limits<int>::max();
    int hi = std::numeric_limits<int>::min();
    for (int t : mapping.taskOfMacro) {
        if (t < 0)
            continue;
        lo = std::min(lo, tasks[t].setId);
        hi = std::max(hi, tasks[t].setId);
    }
    const size_t sets = hi >= lo ? static_cast<size_t>(hi - lo) + 1 : 0;
    const size_t groups = static_cast<size_t>(cfg.groups);
    using SetAcc = EvalScratch::SetAcc;
    std::vector<SetAcc> &acc = scratch.sets;
    std::vector<uint8_t> &hosts = scratch.hosts;
    acc.assign(sets, SetAcc{});
    hosts.assign(sets * groups, 0);
    const double macs_per_cycle =
        static_cast<double>(cfg.macsPerMacroPerPass()) / cfg.inputBits;
    for (int m = 0; m < mapping.macros(); ++m) {
        const int t = mapping.taskOfMacro[m];
        if (t < 0)
            continue;
        const int g = Mapping::groupOf(m, cfg);
        const size_t k = static_cast<size_t>(tasks[t].setId - lo);
        SetAcc &a = acc[k];
        const double cycles =
            static_cast<double>(tasks[t].macs) / macs_per_cycle;
        a.cycles = std::max(a.cycles, cycles);
        const double f = group_pair[g].fGhz;
        a.freq = a.present ? std::min(a.freq, f) : f;
        a.present = true;
        hosts[k * groups + static_cast<size_t>(g)] = 1;
    }

    // Expected IRFailure stalls: replay the flip sequence; a group
    // whose worst task exceeds its level stalls every set it hosts.
    // With w = worst_hr[g] > 0, w * flip > limit is monotone in flip,
    // so over the sorted sequence the failing flips are a suffix.
    for (int g = 0; g < cfg.groups; ++g) {
        if (worst_hr[g] <= 0.0)
            continue;
        const double w = worst_hr[g];
        const double limit =
            static_cast<double>(group_level[g]) / 100.0;
        const auto first_fail = std::partition_point(
            flipSeq.begin(), flipSeq.end(),
            [&](double flip) { return !(w * flip > limit); });
        const auto failures = flipSeq.end() - first_fail;
        if (failures == 0)
            continue;
        const double stall =
            static_cast<double>(failures) / flipSeq.size();
        for (size_t k = 0; k < sets; ++k)
            if (hosts[k * groups + static_cast<size_t>(g)]) {
                acc[k].stalls += stall * cal.recomputePenaltyCycles;
                acc[k].stalled = true;
            }
    }

    ScoreBreakdown out;
    for (const SetAcc &a : acc) {
        if (!a.present)
            continue;
        const double f = std::max(a.freq, 1e-9);
        const double stall_frac =
            a.stalled ? a.stalls / cal.recomputePenaltyCycles : 0.0;
        const double eff_cycles =
            a.cycles * (1.0 + stall_frac) + a.stalls;
        out.makespanCycles =
            std::max(out.makespanCycles, eff_cycles / f);
        out.stallCycles += a.stalls;
    }

    // Energy: active groups burn their operating-point power for the
    // time their sets keep them busy.
    double power_acc = 0.0;
    int active_groups = 0;
    for (int g = 0; g < cfg.groups; ++g) {
        if (worst_hr[g] <= 0.0)
            continue;
        // Mean Rtog of the group's tasks under the flip sequence.
        double hr_acc = 0.0;
        int hosted = 0;
        for (int m = g * cfg.macrosPerGroup;
             m < (g + 1) * cfg.macrosPerGroup; ++m) {
            const int t = mapping.taskOfMacro[m];
            if (t < 0)
                continue;
            hr_acc += tasks[t].inputDetermined ? 0.55 : tasks[t].hr;
            ++hosted;
        }
        const double mean_rtog =
            hosted > 0 ? 0.55 * hr_acc / hosted : 0.0;
        const double p = pm.macroPowerMw(
            group_pair[g].v, group_pair[g].fGhz, mean_rtog);
        power_acc += p * hosted;
        ++active_groups;
        out.energy += p * hosted * out.makespanCycles;
    }
    out.meanGroupPowerMw =
        active_groups > 0 ? power_acc / active_groups : 0.0;

    out.score = mode == Objective::Sprint
                    ? out.makespanCycles * (1.0 + 1e-6 * out.energy)
                    : out.energy * (1.0 + 0.05 * out.makespanCycles /
                                              (out.makespanCycles + 1.0));
    return out;
}

} // namespace aim::mapping
