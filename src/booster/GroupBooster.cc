#include "booster/GroupBooster.hh"

#include "util/Logging.hh"

namespace aim::booster
{

GroupBooster::GroupBooster(const power::VfTable &table,
                           const BoosterConfig &cfg, int safe_level)
    : table(table), cfg(cfg), safe(safe_level)
{
    aim_assert(isValidLevel(safe, table.calibration()),
               "invalid safe level ", safe);
    aim_assert(cfg.beta >= 5, "beta ", cfg.beta, " too small");
    aggrLevel = cfg.aggressiveAdjustment ? initialALevel(safe) : safe;
    curLevel = aggrLevel;
    curPair = pairFor(curLevel);
}

power::VfPair
GroupBooster::pairFor(int level_pct) const
{
    return cfg.mode == BoostMode::Sprint
               ? table.sprintPair(level_pct)
               : table.lowPowerPair(level_pct);
}

BoostDecision
GroupBooster::step(bool ir_failure, bool set_freq_sync,
                   int set_level_pct)
{
    const power::VfPair prev_pair = curPair;
    const int prev_level = curLevel;
    BoostDecision d;

    if (ir_failure) {
        ++failCount;
        // Lines 4-10: retreat to the safe level; a short failure
        // interval (counter < 0.2 beta) means the aggressive level
        // was too optimistic.
        if (cfg.aggressiveAdjustment &&
            counter < static_cast<long>(0.2 * cfg.beta)) {
            aggrLevel =
                levelDown(aggrLevel, safe, table.calibration());
            ++demoteCount;
        }
        curLevel = safe;
        counter = 0;
        d.recompute = true;
    } else if (set_freq_sync) {
        // Lines 11-13: frequency synchronization within the Set.
        aim_assert(isValidLevel(set_level_pct, table.calibration()),
                   "invalid set level ", set_level_pct);
        curLevel = set_level_pct;
        counter = 0;
    } else {
        // Lines 14-23: safe progress.
        ++counter;
        if (cfg.aggressiveAdjustment) {
            if (counter == cfg.beta) {
                curLevel = aggrLevel;
            } else if (counter > 2L * cfg.beta) {
                aggrLevel = levelUp(aggrLevel, table.calibration());
                ++promoteCount;
                curLevel = aggrLevel;
                counter = cfg.beta;
            }
        }
    }

    // A level's pair is fixed, so only a level change looks one up.
    if (curLevel != prev_level)
        curPair = pairFor(curLevel);
    d.level = curLevel;
    d.pair = curPair;
    d.vfSwitched = !(curPair == prev_pair);
    return d;
}

} // namespace aim::booster
