/**
 * @file
 * Task and Mapping abstractions.  The compiler splits each operator
 * into macro-sized tiles; the tiles of one operator instance form a
 * logical *MacroSet* (paper Figure 11-(b)) that must run at one
 * frequency, while the macros of a physical *Group* share one supply
 * and one V-f pair.  A Mapping assigns tasks to macros; vacant macros
 * are allowed (the "empty macro" option of Section 5.6).
 */

#ifndef AIM_MAPPING_TASK_HH
#define AIM_MAPPING_TASK_HH

#include <string>
#include <vector>

#include "pim/PimConfig.hh"
#include "workload/ModelZoo.hh"

namespace aim::mapping
{

/** One macro-sized tile of an operator. */
struct Task
{
    /** Operator this tile belongs to. */
    std::string layerName;
    workload::OpType type = workload::OpType::Conv;
    /** Logical MacroSet id (operator instance). */
    int setId = 0;
    /** HR of the tile's in-memory data (1.0 placeholder when unknown
     * offline, i.e. input-determined operators). */
    double hr = 0.5;
    /** True when in-memory data is produced at runtime (QKT / SV). */
    bool inputDetermined = false;
    /** MAC work of the tile (cycles ~ macs / throughput). */
    long macs = 0;
};

/** Assignment of tasks to macros (index = macro id; -1 = vacant). */
struct Mapping
{
    std::vector<int> taskOfMacro;

    /** Number of macros in the mapping. */
    int macros() const { return static_cast<int>(taskOfMacro.size()); }

    /** Macro group of macro @p m under config @p cfg. */
    static int groupOf(int m, const pim::PimConfig &cfg)
    {
        return m / cfg.macrosPerGroup;
    }

    /** True when every task is assigned to exactly one macro. */
    bool valid(size_t taskCount) const;
};

/** Worst (max) task HR per group; groups drive the safe level. */
std::vector<double> groupWorstHr(const Mapping &mapping,
                                 const std::vector<Task> &tasks,
                                 const pim::PimConfig &cfg);

} // namespace aim::mapping

#endif // AIM_MAPPING_TASK_HH
