#include "sim/ChipState.hh"

#include <algorithm>
#include <cmath>

namespace aim::sim
{

ChipState::ChipState(const pim::PimConfig &cfg,
                     const power::Calibration &cal,
                     const power::VfTable &table,
                     const booster::BoosterConfig &boost,
                     bool use_booster, const Round &round,
                     const mapping::Mapping &map,
                     const pim::ToggleStats &toggles,
                     const util::Rng &rng)
{
    groups.resize(static_cast<size_t>(cfg.groups));

    // The Sets the mapping hosts, ascending id.
    const auto set_of = [&](int t) {
        return round.tasks[static_cast<size_t>(t)].setId;
    };
    std::vector<int> ids;
    for (const int t : map.taskOfMacro)
        if (t >= 0)
            ids.push_back(set_of(t));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    sets.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i)
        sets[i].id = ids[i];
    const auto set_index = [&](int t) {
        return static_cast<size_t>(
            std::lower_bound(ids.begin(), ids.end(), set_of(t)) -
            ids.begin());
    };

    const auto worst_hr = groupWorstHr(map, round.tasks, cfg);
    for (int g = 0; g < cfg.groups; ++g) {
        auto &gs = groups[static_cast<size_t>(g)];
        bool input_det = false;
        for (int m = g * cfg.macrosPerGroup;
             m < (g + 1) * cfg.macrosPerGroup; ++m) {
            const int t = map.taskOfMacro[static_cast<size_t>(m)];
            if (t < 0)
                continue;
            gs.macros.push_back(m);
            gs.sets.push_back(static_cast<int>(set_index(t)));
            gs.samplers.emplace_back(
                round.tasks[static_cast<size_t>(t)].hr, toggles,
                rng.fork(static_cast<uint64_t>(m) + 1));
            input_det |=
                round.tasks[static_cast<size_t>(t)].inputDetermined;
        }
        if (gs.macros.empty())
            continue;
        std::sort(gs.sets.begin(), gs.sets.end());
        gs.sets.erase(std::unique(gs.sets.begin(), gs.sets.end()),
                      gs.sets.end());
        gs.active = true;
        activeMacros += static_cast<int>(gs.macros.size());
        gs.safeLevel = input_det
                           ? 100
                           : table.safeLevelFor(
                                 worst_hr[static_cast<size_t>(g)]);
        if (use_booster) {
            gs.boost = std::make_unique<booster::GroupBooster>(
                table, boost, gs.safeLevel);
            gs.monitor = std::make_unique<power::IrMonitor>(
                cal, rng.fork(1000 + static_cast<uint64_t>(g)));
            gs.pair = gs.boost->pair();
        } else {
            gs.pair = table.dvfsNominal();
        }
        // Expected Rtog is a pure function of the samplers; compute
        // it once instead of every window.
        double mean_rtog = 0.0;
        for (const auto &sampler : gs.samplers)
            mean_rtog += sampler.mean();
        gs.meanRtog =
            mean_rtog / static_cast<double>(gs.samplers.size());
    }

    // Set bookkeeping: passes to execute, member groups, work.
    const double macs_per_pass =
        static_cast<double>(cfg.macsPerMacroPerPass());
    for (int m = 0; m < map.macros(); ++m) {
        const int t = map.taskOfMacro[static_cast<size_t>(m)];
        if (t < 0)
            continue;
        auto &ss = sets[set_index(t)];
        const double scaled = std::max(
            static_cast<double>(
                round.tasks[static_cast<size_t>(t)].macs),
            1.0);
        ss.remaining = std::max(
            ss.remaining,
            static_cast<long>(std::ceil(scaled / macs_per_pass)));
        // Macros ascend, so a Set's groups arrive in ascending order.
        const int g = mapping::Mapping::groupOf(m, cfg);
        if (ss.groups.empty() || ss.groups.back() != g)
            ss.groups.push_back(g);
        ss.macsPerPass += macs_per_pass;
        totalMacs += scaled;
    }
    unfinished = static_cast<int>(std::count_if(
        sets.begin(), sets.end(),
        [](const SetState &ss) { return ss.remaining > 0; }));

    for (auto &gs : groups)
        if (gs.active)
            gs.fEff = gs.pair.fGhz;
}

const SetState *
ChipState::findSet(int id) const
{
    const auto it = std::lower_bound(
        sets.begin(), sets.end(), id,
        [](const SetState &ss, int v) { return ss.id < v; });
    return it != sets.end() && it->id == id ? &*it : nullptr;
}

std::vector<std::vector<int>>
ChipState::activeMacroIds() const
{
    std::vector<std::vector<int>> out;
    out.reserve(groups.size());
    for (const auto &gs : groups)
        out.push_back(gs.macros);
    return out;
}

} // namespace aim::sim
