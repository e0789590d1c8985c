#include "mapping/Task.hh"

#include <algorithm>

#include "util/Logging.hh"

namespace aim::mapping
{

bool
Mapping::valid(size_t taskCount) const
{
    std::vector<int> seen(taskCount, 0);
    for (int t : taskOfMacro) {
        if (t < 0)
            continue;
        if (t >= static_cast<int>(taskCount))
            return false;
        ++seen[t];
    }
    return std::all_of(seen.begin(), seen.end(),
                       [](int c) { return c == 1; });
}

std::vector<double>
groupWorstHr(const Mapping &mapping, const std::vector<Task> &tasks,
             const pim::PimConfig &cfg)
{
    std::vector<double> worst(static_cast<size_t>(cfg.groups), 0.0);
    for (int m = 0; m < mapping.macros(); ++m) {
        const int t = mapping.taskOfMacro[m];
        if (t < 0)
            continue;
        const int g = Mapping::groupOf(m, cfg);
        const double hr =
            tasks[t].inputDetermined ? 1.0 : tasks[t].hr;
        worst[g] = std::max(worst[g], hr);
    }
    return worst;
}

} // namespace aim::mapping
