#include "power/VfTable.hh"

#include <algorithm>
#include <cmath>

#include "util/Logging.hh"

namespace aim::power
{

VfTable::VfTable(const Calibration &cal) : cal(cal), ir(cal)
{
    for (double f : cal.fGrid)
        gridVmin.push_back(vMinTiming(f));

    for (int l = cal.levelMinPct; l <= cal.levelMaxPct;
         l += cal.levelStepPct)
        levelMemo.emplace_back().pct = l;
    levelMemo.emplace_back().pct = 100;

    for (Level &level : levelMemo) {
        const double rtog = static_cast<double>(level.pct) / 100.0;
        for (double v : cal.vGrid)
            for (size_t i = 0; i < gridVmin.size(); ++i)
                if (ir.vEff(v, cal.fGrid[i], rtog) >= gridVmin[i])
                    level.pairs.push_back({v, cal.fGrid[i]});
        if (level.pairs.empty())
            continue;

        // Sprint: max frequency, then max voltage.
        level.sprint = level.pairs.front();
        for (const auto &p : level.pairs)
            if (p.fGhz > level.sprint.fGhz ||
                (p.fGhz == level.sprint.fGhz && p.v > level.sprint.v))
                level.sprint = p;
        // Low power: minimum power among pairs holding the nominal
        // frequency; if none can, the fastest available (minimizes
        // the slowdown).
        const VfPair *best = nullptr;
        for (const auto &p : level.pairs) {
            if (p.fGhz + 1e-9 < cal.fNominal)
                continue;
            if (!best ||
                p.v * p.v * p.fGhz < best->v * best->v * best->fGhz)
                best = &p;
        }
        level.lowPower = best ? *best : level.sprint;
    }
}

double
VfTable::fMax(double veff) const
{
    if (veff <= cal.vth)
        return 0.0;
    // Alpha-power law: delay ~ V / (V - Vth)^alpha, so
    // f(V) ~ (V - Vth)^alpha / V, anchored at the signoff corner.
    const double ve_signoff =
        cal.vddNominal - ir.signoffWorstMv() / 1000.0;
    const double anchor =
        std::pow(ve_signoff - cal.vth, cal.alphaPower) / ve_signoff;
    const double cur =
        std::pow(veff - cal.vth, cal.alphaPower) / veff;
    return cal.fNominal * cur / anchor;
}

double
VfTable::vMinTiming(double fGhz) const
{
    aim_assert(fGhz > 0.0, "non-positive frequency");
    // fMax is monotonically increasing in veff: bisect.
    double lo = cal.vth + 1e-4;
    double hi = 1.2;
    aim_assert(fMax(hi) >= fGhz, "frequency ", fGhz,
               " GHz unreachable at any supply");
    for (int i = 0; i < 64; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (fMax(mid) >= fGhz)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

std::vector<int>
VfTable::levels() const
{
    std::vector<int> out;
    for (const Level &level : levelMemo)
        out.push_back(level.pct);
    return out;
}

const VfTable::Level *
VfTable::findLevel(int levelPct) const
{
    for (const Level &level : levelMemo)
        if (level.pct == levelPct)
            return &level;
    return nullptr;
}

const std::vector<VfPair> &
VfTable::pairsAt(int levelPct) const
{
    const Level *level = findLevel(levelPct);
    return level ? level->pairs : empty;
}

int
VfTable::maxLevelPct(const VfPair &p) const
{
    const double vmin = vMinTiming(p.fGhz);
    int best = 0;
    for (const Level &level : levelMemo)
        if (ir.vEff(p.v, p.fGhz,
                    static_cast<double>(level.pct) / 100.0) >= vmin)
            best = std::max(best, level.pct);
    return best;
}

int
VfTable::safeLevelFor(double hr) const
{
    const double pct = hr * 100.0;
    for (int l = cal.levelMinPct; l <= cal.levelMaxPct;
         l += cal.levelStepPct)
        if (pct <= static_cast<double>(l))
            return l;
    return 100;
}

VfPair
VfTable::sprintPair(int levelPct) const
{
    const Level *level = findLevel(levelPct);
    aim_assert(level && !level->pairs.empty(), "no V-f pair at level ",
               levelPct);
    return level->sprint;
}

VfPair
VfTable::lowPowerPair(int levelPct) const
{
    const Level *level = findLevel(levelPct);
    aim_assert(level && !level->pairs.empty(), "no V-f pair at level ",
               levelPct);
    return level->lowPower;
}

VfPair
VfTable::dvfsNominal() const
{
    return VfPair{cal.vddNominal, cal.fNominal};
}

} // namespace aim::power
