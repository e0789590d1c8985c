#include "booster/LevelPolicy.hh"

#include <algorithm>

#include "util/Logging.hh"

namespace aim::booster
{

int
initialALevel(int safe)
{
    switch (safe) {
      case 100: return 60;
      case 60:  return 40;
      case 55:  return 35;
      case 50:  return 35;
      case 45:  return 35;
      case 40:  return 30;
      case 35:  return 30;
      case 30:  return 25;
      case 25:  return 20;
      case 20:  return 20;
      default:
        aim_panic("no Table-1 entry for safe level ", safe);
    }
}

int
levelUp(int level, const power::Calibration &cal)
{
    if (level == 100)
        return cal.levelMaxPct;
    return std::max(level - cal.levelStepPct, cal.levelMinPct);
}

int
levelDown(int level, int safe, const power::Calibration &cal)
{
    if (level == 100)
        return 100;
    const int next = level + cal.levelStepPct;
    if (safe == 100)
        return next > cal.levelMaxPct ? 100 : next;
    return std::min(next, safe);
}

bool
isValidLevel(int pct, const power::Calibration &cal)
{
    if (pct == 100)
        return true;
    if (pct < cal.levelMinPct || pct > cal.levelMaxPct)
        return false;
    return (pct - cal.levelMinPct) % cal.levelStepPct == 0;
}

} // namespace aim::booster
