#include "mapping/Mappers.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/Logging.hh"

namespace aim::mapping
{

const char *
mapperName(MapperKind kind)
{
    switch (kind) {
      case MapperKind::Sequential: return "Sequential";
      case MapperKind::Zigzag:     return "Zigzag";
      case MapperKind::Random:     return "Random";
      case MapperKind::HrAware:    return "HR-aware";
    }
    return "?";
}

namespace
{

void
checkFits(const std::vector<Task> &tasks, const pim::PimConfig &cfg)
{
    aim_assert(tasks.size() <= static_cast<size_t>(cfg.macros()),
               tasks.size(), " tasks exceed ", cfg.macros(),
               " macros");
}

} // namespace

Mapping
mapSequential(const std::vector<Task> &tasks, const pim::PimConfig &cfg)
{
    checkFits(tasks, cfg);
    Mapping m;
    m.taskOfMacro.assign(cfg.macros(), -1);
    for (size_t t = 0; t < tasks.size(); ++t)
        m.taskOfMacro[t] = static_cast<int>(t);
    return m;
}

Mapping
mapZigzag(const std::vector<Task> &tasks, const pim::PimConfig &cfg)
{
    checkFits(tasks, cfg);
    Mapping m;
    m.taskOfMacro.assign(cfg.macros(), -1);
    // Boustrophedon order: even groups left-to-right, odd groups
    // right-to-left.
    std::vector<int> order;
    order.reserve(cfg.macros());
    for (int g = 0; g < cfg.groups; ++g) {
        if (g % 2 == 0) {
            for (int i = 0; i < cfg.macrosPerGroup; ++i)
                order.push_back(g * cfg.macrosPerGroup + i);
        } else {
            for (int i = cfg.macrosPerGroup - 1; i >= 0; --i)
                order.push_back(g * cfg.macrosPerGroup + i);
        }
    }
    for (size_t t = 0; t < tasks.size(); ++t)
        m.taskOfMacro[order[t]] = static_cast<int>(t);
    return m;
}

Mapping
mapRandom(const std::vector<Task> &tasks, const pim::PimConfig &cfg,
          util::Rng &rng)
{
    checkFits(tasks, cfg);
    std::vector<int> macros(cfg.macros());
    std::iota(macros.begin(), macros.end(), 0);
    rng.shuffle(macros);
    Mapping m;
    m.taskOfMacro.assign(cfg.macros(), -1);
    for (size_t t = 0; t < tasks.size(); ++t)
        m.taskOfMacro[macros[t]] = static_cast<int>(t);
    return m;
}

Mapping
mapHrAware(const std::vector<Task> &tasks, const pim::PimConfig &cfg,
           const MappingEvaluator &evaluator,
           const AnnealConfig &anneal)
{
    checkFits(tasks, cfg);
    util::Rng rng(anneal.seed);

    // Algorithm 3 line 1: start from the traditional mapping.  Each
    // candidate is the current mapping with one swap applied to its
    // score state (and swapped back on rejection), which rescores
    // only the two groups and their Sets.
    ScoreState cur(evaluator, mapSequential(tasks, cfg), tasks);
    const double s0 = cur.breakdown().score;
    double s_cur = s0;
    Mapping best = cur.mapping();
    double s_best = s0;

    double temp = anneal.t0;
    int rejected = 0;
    for (int step = 0; step < anneal.steps; ++step) {
        temp *= anneal.q;

        // Transition: swap the tasks of two macros from different
        // groups (vacant macros included -- the empty-macro option).
        const int m1 =
            static_cast<int>(rng.uniformInt(0, cfg.macros() - 1));
        int m2 = m1;
        for (int tries = 0; tries < 64 && Mapping::groupOf(m2, cfg) ==
                                              Mapping::groupOf(m1, cfg);
             ++tries)
            m2 = static_cast<int>(rng.uniformInt(0, cfg.macros() - 1));
        if (Mapping::groupOf(m2, cfg) == Mapping::groupOf(m1, cfg))
            continue;
        cur.swap(m1, m2);

        const double s_new = cur.breakdown().score;
        const double delta = s_new - s_cur;
        // Normalized-exponential acceptor (Section 5.6).
        const bool accept =
            delta < 0.0 ||
            rng.uniform() < std::exp(-delta / (0.5 * s0 * temp));
        if (accept) {
            s_cur = s_new;
            rejected = 0;
            if (s_new < s_best) {
                best.taskOfMacro = cur.mapping().taskOfMacro;
                s_best = s_new;
            }
        } else {
            cur.swap(m1, m2);
            if (++rejected >= anneal.patience)
                break; // ten consecutive rejections: converged
        }
    }
    return best;
}

Mapping
mapWith(MapperKind kind, const std::vector<Task> &tasks,
        const pim::PimConfig &cfg, const MappingEvaluator &evaluator,
        uint64_t seed)
{
    switch (kind) {
      case MapperKind::Sequential:
        return mapSequential(tasks, cfg);
      case MapperKind::Zigzag:
        return mapZigzag(tasks, cfg);
      case MapperKind::Random: {
        util::Rng rng(seed);
        return mapRandom(tasks, cfg, rng);
      }
      case MapperKind::HrAware: {
        AnnealConfig anneal;
        anneal.seed = seed;
        return mapHrAware(tasks, cfg, evaluator, anneal);
      }
    }
    aim_panic("unknown mapper kind");
}

} // namespace aim::mapping
