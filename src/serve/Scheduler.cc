#include "serve/Scheduler.hh"

#include <algorithm>
#include <cmath>

namespace aim::serve
{

const char *
policyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::Fcfs:    return "fcfs";
      case SchedPolicy::Sjf:     return "sjf";
      case SchedPolicy::IrAware: return "ir-aware";
    }
    return "?";
}

std::vector<SchedPolicy>
allPolicies()
{
    return {SchedPolicy::Fcfs, SchedPolicy::Sjf, SchedPolicy::IrAware};
}

Scheduler::Scheduler(SchedPolicy policy) : kind(policy)
{
}

int
artifactSafeLevel(const CompiledModel &compiled,
                  const power::VfTable &table)
{
    int level = table.safeLevelFor(compiled.hrMax);
    for (const auto &round : compiled.rounds)
        for (const auto &task : round.tasks) {
            const int task_level =
                task.inputDetermined ? 100
                                     : table.safeLevelFor(task.hr);
            level = std::max(level, task_level);
        }
    return level;
}

namespace
{

/**
 * IR-aware rank of a candidate: model affinity outweighs level
 * proximity, which outweighs arrival order.  A resident-model hit
 * skips the macro weight reload entirely; a level match spares the
 * booster the V-f retune transient that resets its safe counters.
 */
struct IrRank
{
    int reload;
    int levelDist;
    double arrivalUs;

    bool
    operator<(const IrRank &o) const
    {
        if (reload != o.reload)
            return reload < o.reload;
        if (levelDist != o.levelDist)
            return levelDist < o.levelDist;
        return arrivalUs < o.arrivalUs;
    }
};

IrRank
irRank(const QueuedRequest &q, const ChipContext &chip)
{
    // The level the chip would park at is the one of the artifact
    // compiled for *its* SKU class.
    IrRank r;
    r.reload = q.request.model == chip.residentModel ? 0 : 1;
    r.levelDist = std::abs(
        q.safeLevelByClass[static_cast<size_t>(chip.skuClass)] -
        chip.safeLevel);
    r.arrivalUs = q.request.arrivalUs;
    return r;
}

/** Can @p chip host @p q?  Gangs are candidates on any chip:
 * acquisition routes the members. */
bool
eligible(const QueuedRequest &q, const ChipContext &chip)
{
    return q.sharded || q.requiredMweight <= chip.capacityMweight;
}

} // namespace

bool
Scheduler::before(const QueuedRequest &cand, const QueuedRequest &lead,
                  const ChipContext &chip) const
{
    switch (kind) {
      case SchedPolicy::Fcfs:
        return cand.request.arrivalUs < lead.request.arrivalUs;
      case SchedPolicy::Sjf:
        return cand.estServiceUs < lead.estServiceUs ||
               (cand.estServiceUs == lead.estServiceUs &&
                cand.request.arrivalUs < lead.request.arrivalUs);
      case SchedPolicy::IrAware:
        return irRank(cand, chip) < irRank(lead, chip);
    }
    return false;
}

size_t
Scheduler::pick(const std::vector<QueuedRequest> &queue,
                const ChipContext &chip) const
{
    size_t best = queue.size();
    for (size_t i = 0; i < queue.size(); ++i) {
        const auto &cand = queue[i];
        if (best < queue.size() && !before(cand, queue[best], chip))
            continue;
        // Eligibility is only checked on a would-be pick, which keeps
        // the common everything-fits scan as cheap as the rank.
        if (eligible(cand, chip))
            best = i;
    }
    return best;
}

int
Scheduler::pickHead(const ModelQueues &pending,
                    const ChipContext &chip) const
{
    int best = -1;
    for (int m = 0; m < pending.queues(); ++m) {
        if (pending.depth(m) == 0)
            continue;
        const QueuedRequest &cand = pending.at(m, 0);
        if (!eligible(cand, chip))
            continue;
        // Equal ranks go to the earlier admission, as in pick().
        if (best < 0 || before(cand, pending.at(best, 0), chip) ||
            (!before(pending.at(best, 0), cand, chip) &&
             pending.headSeq(m) < pending.headSeq(best)))
            best = m;
    }
    return best;
}

void
ModelQueues::push(QueuedRequest q)
{
    auto it = std::find_if(fifos.begin(), fifos.end(),
                           [&](const Fifo &f) {
                               return f.model == q.request.model;
                           });
    if (it == fifos.end()) {
        fifos.push_back({q.request.model, {}});
        it = fifos.end() - 1;
    }
    it->entries.push_back({admittedCount++, std::move(q)});
    ++count;
}

QueuedRequest
ModelQueues::pop(int m)
{
    auto &entries = fifos[static_cast<size_t>(m)].entries;
    QueuedRequest q = std::move(entries.front().q);
    entries.pop_front();
    --count;
    return q;
}

} // namespace aim::serve
