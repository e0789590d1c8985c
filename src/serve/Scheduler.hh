/**
 * @file
 * Dispatch policies of the serving fleet.  Whenever a chip frees up,
 * the scheduler picks the next request from the pending queue:
 *
 *   Fcfs    -- earliest arrival first; the fairness baseline
 *   Sjf     -- shortest predicted service first; minimizes mean
 *              latency under load at the cost of tail fairness
 *   IrAware -- exploits the AIM chip model: keep a chip on its
 *              resident model (no macro weight reload) and on
 *              requests whose safe Rtog level is close to what the
 *              chip's IR-Booster is currently tuned for, so the
 *              booster avoids V-f retune transients and the recompute
 *              stalls that level churn provokes
 *
 * Policies are pure functions of the queue and the chip context, so
 * the fleet can swap them per experiment without touching the event
 * loop.  The pick is also where capability-aware placement happens:
 * a request is only a candidate for a chip whose SKU class can hold
 * its weights (ChipContext::capacityMweight), and the IR-aware rank
 * reads the safe level of the artifact compiled for the chip's class.
 *
 * Two picks share one rank.  Scheduler::pick scans a flat queue in
 * admission order and returns its first minimal eligible request:
 * the reference.  The serving engine keeps one FIFO per model
 * instead (ModelQueues) and ranks only the queue heads
 * (Scheduler::pickHead), which returns the same request in O(models)
 * because every rank key but arrival -- predicted service, per-class
 * safe level, weight footprint, gang-ness and the resident-model
 * match -- is a per-model constant (serve::ArtifactMeta memoizes them
 * per model), and arrivals never decrease in admission order: a
 * model's head ranks no worse than anything queued behind it.
 *
 * Chip-group dispatch: a QueuedRequest whose model is sharded
 * (src/shard/) carries gangChips > 1 and a ShardedModel artifact.
 * Policies rank it like any other request on any chip; when picked,
 * the serving loop acquires the gang's member chips itself and holds
 * them all for the pipeline makespan (src/stream/EventLoop).
 */

#ifndef AIM_SERVE_SCHEDULER_HH
#define AIM_SERVE_SCHEDULER_HH

#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "power/VfTable.hh"
#include "serve/Trace.hh"

namespace aim::shard
{
struct ShardedModel;
}

namespace aim::serve
{

/** Dispatch policy selector. */
enum class SchedPolicy
{
    Fcfs,
    Sjf,
    IrAware,
};

/** Printable name of a policy. */
const char *policyName(SchedPolicy policy);

/** All policies, for sweeps. */
std::vector<SchedPolicy> allPolicies();

/** A pending request plus everything the policies rank by. */
struct QueuedRequest
{
    Request request;
    /** Cached artifact the request will execute (gang: null). */
    std::shared_ptr<const CompiledModel> compiled;
    /** Sharded artifact of a gang-dispatched request (else null). */
    std::shared_ptr<const shard::ShardedModel> sharded;
    /**
     * Chips the request occupies simultaneously.  1 for ordinary
     * requests; gang-dispatched (sharded) requests hold this many
     * chips for their whole pipeline makespan.
     */
    int gangChips = 1;
    /** Predicted full-inference service time [us] (SJF key). */
    double estServiceUs = 0.0;
    /**
     * One artifact per SKU class, indexed by class (a SKU-less fleet
     * is one class): the artifact a chip of that class executes, or
     * null where the model does not fit (and for gangs).  `compiled`
     * is the most capable fitting class's.
     */
    std::vector<std::shared_ptr<const CompiledModel>>
        compiledByClass;
    /** Safe Rtog level of the worst layer [%] of each class's
     * artifact (100 where the model does not fit; gangs: the worst
     * stage's, in every class).  The IR-aware rank reads the entry
     * of the asking chip's class. */
    std::vector<int> safeLevelByClass;
    /** Weight footprint the hosting chip must hold [Mweight]
     * (gangs: the per-member share).  Capability-aware placement
     * compares this against the chip SKU's capacityMweight(). */
    double requiredMweight = 0.0;
};

/** What a policy may know about the chip asking for work. */
struct ChipContext
{
    int chip = 0;
    /** Model whose weights are resident ("" when cold). */
    std::string residentModel;
    /** Safe level the chip's booster is currently tuned for [%]. */
    int safeLevel = 100;
    /** SKU class of the chip (0 on a SKU-less fleet); selects the
     * candidate's per-class safe level in the IR-aware rank. */
    int skuClass = 0;
    /** Weight capacity of the chip's class [Mweight]: single-chip
     * requests needing more are not candidates.  +inf on a SKU-less
     * fleet. */
    double capacityMweight = std::numeric_limits<double>::infinity();
};

/**
 * Worst-case safe Rtog level the IR-Booster needs anywhere in an
 * artifact: input-determined attention tiles force the 100% (DVFS)
 * level since their in-memory HR is unknown offline; weight tiles map
 * their HR through the V-f table.  This is the level a chip's booster
 * is effectively parked at while serving the model, and what the
 * IR-aware policy matches chips on.
 */
int artifactSafeLevel(const CompiledModel &compiled,
                      const power::VfTable &table);

/**
 * Pending requests as one FIFO per model, each in admission order.
 * A request's admission sequence number orders it against the other
 * queues' requests.  Queues are created on a model's first
 * admission and stay (possibly empty) for the run, so queue indices
 * are stable.
 */
class ModelQueues
{
  public:
    /** Admit @p q behind every request admitted before it. */
    void push(QueuedRequest q);

    /** Pop the head of queue @p m. */
    QueuedRequest pop(int m);

    /** Requests queued across every model. */
    long size() const { return count; }

    /** Queues created so far (empty ones included). */
    int queues() const { return static_cast<int>(fifos.size()); }

    /** Requests queued in queue @p m. */
    size_t depth(int m) const
    {
        return fifos[static_cast<size_t>(m)].entries.size();
    }

    /** The @p i-th request of queue @p m (0 = its head). */
    const QueuedRequest &at(int m, size_t i) const
    {
        return fifos[static_cast<size_t>(m)].entries[i].q;
    }

    /** Admission sequence number of queue @p m's head. */
    long headSeq(int m) const
    {
        return fifos[static_cast<size_t>(m)].entries.front().seq;
    }

  private:
    struct Entry
    {
        long seq = 0;
        QueuedRequest q;
    };

    struct Fifo
    {
        std::string model;
        std::deque<Entry> entries;
    };

    std::vector<Fifo> fifos;
    long admittedCount = 0;
    long count = 0;
};

/** Picks the next request for a freed chip. */
class Scheduler
{
  public:
    explicit Scheduler(SchedPolicy policy);

    /**
     * Index into @p queue of the request the chip should run next,
     * among the candidates the chip's capacity admits (gangs are
     * candidates everywhere); queue.size() when there is none.
     * Entries are not reordered; among equally ranked candidates the
     * earliest entry wins.  The reference pickHead is tested against.
     */
    size_t pick(const std::vector<QueuedRequest> &queue,
                const ChipContext &chip) const;

    /**
     * Queue of @p pending whose head the chip should run next, or -1
     * when no head is a candidate.  Equally ranked heads go in
     * admission order.  With per-model rank keys and arrivals
     * non-decreasing in admission order, this is the request pick()
     * returns over all of @p pending laid out in admission order.
     */
    int pickHead(const ModelQueues &pending,
                 const ChipContext &chip) const;

    SchedPolicy policy() const { return kind; }

  private:
    /** Does @p cand rank strictly before @p lead on @p chip? */
    bool before(const QueuedRequest &cand, const QueuedRequest &lead,
                const ChipContext &chip) const;

    SchedPolicy kind;
};

} // namespace aim::serve

#endif // AIM_SERVE_SCHEDULER_HH
