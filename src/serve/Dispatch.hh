/**
 * @file
 * Chip bookkeeping, serving-cost model and request annotation of the
 * serving engine (stream/EventLoop):
 *
 *   FleetSkus       -- the fleet's SKU classes; a SKU-less fleet is
 *                      one class of unbounded capacity, so every
 *                      class-indexed path below serves it unchanged
 *   ChipPool        -- per-chip clock / resident-model / safe-level
 *                      slots with class-aware atomic gang acquisition;
 *                      slots carry an `active` flag so the autoscaler
 *                      can grow and shrink the dispatchable pool
 *                      without disturbing busy chips
 *   dispatchCost    -- the serving-cost model: reload on a resident
 *                      switch, booster retune per safe-level step
 *   RequestExecutor -- one SKU class's chip executing artifacts
 *   ArtifactMeta    -- annotation of a Request into a QueuedRequest:
 *                      per-class artifacts through the ModelCache plus
 *                      the memoized scheduling keys (estimated service
 *                      time, safe level, reload cost, gang slot layout)
 *                      and each gang model's stage runtimes, built
 *                      once per run on the annotating thread
 *
 * The report goldens (tests/serve/ServeGoldenTest) pin the
 * arithmetic.
 */

#ifndef AIM_SERVE_DISPATCH_HH
#define AIM_SERVE_DISPATCH_HH

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "power/VfTable.hh"
#include "serve/Fleet.hh"
#include "serve/ModelCache.hh"
#include "serve/Scheduler.hh"

namespace aim::exec
{
class ExecPool;
} // namespace aim::exec

namespace aim::isa
{
class Engine;
} // namespace aim::isa

namespace aim::serve
{

/**
 * The SKU structure of a fleet as the dispatch layer consumes it:
 * which capability class each chip belongs to and what that class
 * can hold.  A "class" is an index into FleetConfig::skus; a SKU-less
 * fleet is one class of unbounded capacity on the engine's own chip,
 * so every capability check is vacuously true.
 */
class FleetSkus
{
  public:
    explicit FleetSkus(const FleetConfig &fcfg);

    /** SKU table configured (capability checks active)? */
    bool heterogeneous() const { return !skus.empty(); }

    /** Capability classes (1 for a SKU-less fleet). */
    int classes() const
    {
        return heterogeneous() ? static_cast<int>(skus.size()) : 1;
    }

    /** Class of chip @p c (0 on a SKU-less fleet). */
    int classOf(int c) const
    {
        return heterogeneous() ? assignment[static_cast<size_t>(c)]
                               : 0;
    }

    /** SKU of class @p cls; nullptr on a SKU-less fleet (the
     * engine's own chip). */
    const ChipSku *sku(int cls) const
    {
        return heterogeneous() ? &skus[static_cast<size_t>(cls)]
                               : nullptr;
    }

    /** Weight capacity of class @p cls [Mweight]; +inf on a
     * SKU-less fleet (everything fits). */
    double capacity(int cls) const;

    /** Does any chip of the fleet belong to class @p cls?  (A SKU
     * table may configure parts that skuOf never instantiates.) */
    bool hosts(int cls) const
    {
        return !heterogeneous() ||
               std::find(assignment.begin(), assignment.end(), cls) !=
                   assignment.end();
    }

    /** Can class @p cls hold a model of @p mweight Mweight? */
    bool fits(int cls, double mweight) const
    {
        return mweight <= capacity(cls);
    }

    /**
     * Member classes a gang of @p gangChips chips occupies, in slot
     * order: the classes of the @p gangChips most-capable chips that
     * can hold @p shareMweight per member (capacity descending, chip
     * id ascending -- slot 0 gets the biggest part, which is also how
     * the capacity-aware partitioner sizes stage 0).  Empty when
     * fewer than @p gangChips chips are capable, or -- SKU-less -- a
     * vector of zeros (every chip qualifies).
     */
    std::vector<int> gangSlotClasses(int gangChips,
                                     double shareMweight) const;

  private:
    std::vector<ChipSku> skus;
    std::vector<int> assignment;
    int chips = 0;
};

/** One chip's dispatch state inside a fleet. */
struct ChipSlot
{
    /** Simulated time the chip finishes its current work [us]. */
    double freeAtUs = 0.0;
    /** Model whose weights are resident ("" when cold). */
    std::string resident;
    /** Safe level the chip's booster is currently tuned for [%]. */
    int safeLevel = 100;
    /**
     * Trailing-compute window of the chip's last request [us,
     * full-inference scale]: the tail idle the ISA engine measured
     * while the slowest Set finished.  A successor request's weight
     * reload overlaps into it (dispatchCost).  Stays 0 on the
     * round-level path, so flat fleets are unaffected.
     */
    double overlapUs = 0.0;
    /**
     * Dispatchable?  Inactive chips finish whatever they are running
     * but receive no new work -- the autoscaler's shrink primitive.
     * Without an autoscaler every chip stays active.
     */
    bool active = true;
};

/**
 * The chips of a fleet as a dispatch resource: who is free when, and
 * which chips a request (or gang) should occupy next.  Selection
 * rules are deterministic -- ties break toward the lowest chip id.
 */
class ChipPool
{
  public:
    explicit ChipPool(int chips);

    int size() const { return static_cast<int>(slots.size()); }

    ChipSlot &slot(int c) { return slots[static_cast<size_t>(c)]; }

    const ChipSlot &slot(int c) const
    {
        return slots[static_cast<size_t>(c)];
    }

    /**
     * Atomic gang acquisition: member j must be an active chip of
     * class slotClasses[j], each slot taking the earliest-free (ties
     * -> lowest id) not-yet-taken chip of its class; on a one-class
     * pool that is the slotClasses.size() earliest-free chips.
     * Returns an EMPTY vector when any slot cannot be filled from the
     * active pool (e.g. the autoscaler shrank it below the gang);
     * callers reactivate chips and retry, or fail loudly.
     */
    std::vector<int>
    acquireGang(const std::vector<int> &slotClasses) const;

    /** Per-chip capability class (FleetSkus::classOf); defaults to
     * all zeros.  Size must match the pool. */
    void setClassOf(std::vector<int> classes);

    /** Class of chip @p c. */
    int classOf(int c) const
    {
        return classes.empty() ? 0
                               : classes[static_cast<size_t>(c)];
    }

    /**
     * Per-class minimum active counts deactivateOne must preserve
     * (the capability-aware analogue of its count floor): gangs need
     * their slot classes active no matter what the autoscaler wants.
     * Empty (default) = no class floors.
     */
    void setClassFloor(std::vector<int> floor);

    /** Active chips of class @p cls. */
    int activeCountOfClass(int cls) const;

    /** Activate the lowest-id inactive chip whose class is in
     * @p slotClasses; false when none exists. */
    bool activateOneOfClasses(const std::vector<int> &slotClasses);

    /** Dispatchable chips. */
    int activeCount() const;

    /** Activate the lowest-id inactive chip; false when all active. */
    bool activateOne();

    /**
     * Deactivate the highest-id active chip whose class floor
     * (setClassFloor) permits it, refusing to go below @p minActive
     * chips overall; false when nothing can be shut down.
     */
    bool deactivateOne(int minActive);

  private:
    std::vector<ChipSlot> slots;
    std::vector<int> classes;
    std::vector<int> classFloor;
};

/** Serving-cost outcome of placing a request on a chip. */
struct DispatchCost
{
    /** Weight reload paid before execution [us] (0 on a hit; net of
     * any reload/compute overlap). */
    double reloadUs = 0.0;
    /** Booster V-f retune paid before execution [us]. */
    double retuneUs = 0.0;
    /** Reload hidden under the previous request's trailing compute
     * [us] (ISA path only; 0 without an overlap budget). */
    double overlapSavedUs = 0.0;
    /** The placement rewrites the chip's resident weights. */
    bool modelSwitch = false;
};

/**
 * Cost of running (@p model, @p safeLevel) on @p chip: a full weight
 * reload when the resident model differs, a booster retune per
 * safe-level step between the chip's current tuning and the
 * artifact's level.  Pure; does not mutate the slot.
 *
 * @param overlapUs trailing-compute window of the chip's previous
 *        request [us] (ChipSlot::overlapUs).  On a model switch the
 *        successor's LOAD_WEIGHT streams while the predecessor's
 *        slowest Sets still compute, so up to this much of the
 *        reload is free.  The default 0 reproduces the flat
 *        round-level cost exactly.
 */
DispatchCost dispatchCost(const ChipSlot &chip,
                          const std::string &model, int safeLevel,
                          double reloadUs, bool useBooster,
                          double levelStepPct,
                          double retuneUsPerStep,
                          double overlapUs = 0.0);

/** A request execution's outcome as the dispatch layer sees it. */
struct ExecResult
{
    /** The chip-level report (bit-identical on either path). */
    sim::RunReport run;
    /**
     * Tail-idle window of the execution [us, full-inference scale]:
     * how long the fastest Sets idled while the slowest finished the
     * final round.  The next request's reload overlaps into it.
     * 0 on the round-level path (the round runtime cannot see it).
     */
    double overlapUs = 0.0;
    /**
     * Effective service wall of the request [ns, workScale-sized
     * like run.wallTimeNs]: run.wallTimeNs on both default paths,
     * the cost-modelled scheduled makespan when the artifact carries
     * an isaSchedule Schedule (per-round load/retune costs charged
     * minus what the pipeliner hides).  The serving engines charge
     * chips this, not run.wallTimeNs.
     */
    double serviceNs = 0.0;
    /** Scheduled-vs-in-order makespan saving [us, full-inference
     * scale]; 0 unless the artifact was compiled with isaSchedule. */
    double scheduleSavedUs = 0.0;
};

/**
 * Executes compiled artifacts on one SKU class's chip, routing
 * through the round-level sim::Runtime or -- when the fleet's
 * options carry useIsa -- the instruction-level isa::Engine.  Both
 * produce bit-identical RunReports; the ISA path additionally
 * surfaces the per-request tail-idle overlap budget.  Stateless
 * across run() calls (thread-safe for concurrent use), exactly like
 * the runtimes it wraps.  The serving loop calls it from its
 * execute-ahead items without a pool, and at dispatch with its own
 * pool so one request's rounds run concurrently.
 */
class RequestExecutor
{
  public:
    RequestExecutor(const pim::PimConfig &cfg,
                    const power::Calibration &cal,
                    const AimOptions &options);

    /** SKU-chip executor: the SKU's geometry and calibration, with
     * its PDN corner applied to the runtime (runConfigForSku). */
    RequestExecutor(const ChipSku &sku, const AimOptions &options);
    ~RequestExecutor();

    /**
     * Execute @p compiled with per-request @p seed.  @p carry has
     * Runtime::run's electrical-state-carry semantics on both paths.
     * @p pool, when given and no carry is, runs the request's rounds
     * concurrently (Runtime::run / isa::Engine::run); the result is
     * bit-identical either way.
     */
    ExecResult
    run(const CompiledModel &compiled, uint64_t seed,
        std::unique_ptr<power::IrState> *carry = nullptr,
        exec::ExecPool *pool = nullptr) const;

  private:
    double workScale;
    std::unique_ptr<const sim::Runtime> runtime;
    std::unique_ptr<const isa::Engine> engine;
};

/**
 * One executor per SKU class of @p skus, indexed by class; the one
 * class of a SKU-less fleet executes on (@p cfg, @p cal).
 */
std::vector<std::unique_ptr<const RequestExecutor>>
classExecutors(const FleetSkus &skus, const pim::PimConfig &cfg,
               const power::Calibration &cal, const AimOptions &options);

/**
 * Annotates requests with artifacts and scheduling keys, memoizing
 * the per-model and per-(model, class) derived quantities (weight
 * footprint, reload cost, gang routing, estimated full-inference
 * service time, worst safe level, gang slot layout and stage
 * runtimes) so a million-request stream derives them once per model
 * instead of once per request.  One instance per serve run; not
 * thread-safe, though its const accessors may be read concurrently
 * while nothing annotates.
 */
class ArtifactMeta
{
  public:
    /** Per-member-slot dispatch data of one gang artifact, in stage
     * order (tensor-parallel stages occupy `ways` slots). */
    struct GangSlots
    {
        std::vector<std::string> resident;
        std::vector<int> level;
        std::vector<double> reloadUs;
    };

    /** @p cfg and @p cal are the chip of a SKU-less fleet. */
    ArtifactMeta(const FleetConfig &fcfg,
                 const power::Calibration &cal,
                 const pim::PimConfig &cfg = pim::PimConfig{});

    /**
     * Resolve @p request into a QueuedRequest: artifacts from
     * @p cache (compiled on first use), gang routing per the fleet's
     * GangSpecs, memoized scheduling keys.  Single-chip artifacts
     * compile once per SKU class that can hold the model
     * (QueuedRequest::compiledByClass); gang artifacts compile each
     * stage against its member slot's SKU.  A single-chip model that
     * no *instantiated* class can hold is fatal: no chip could ever
     * serve it.
     */
    QueuedRequest annotate(const Request &request, ModelCache &cache);

    /** Full weight-reload cost of a (non-gang) model [us]. */
    double reloadUs(const std::string &model) const;

    /** Slot layout of a gang artifact annotated earlier. */
    const GangSlots &gangSlots(const shard::ShardedModel *m) const;

    /** Member classes of a gang artifact, in slot order (all 0 on
     * a SKU-less fleet). */
    const std::vector<int> &
    gangClasses(const shard::ShardedModel *m) const;

    /**
     * Per-stage runtimes of a gang artifact annotated earlier, for
     * ShardedRuntime::execute: each stage on its member slot's SKU
     * (a SKU-less fleet's on the engine's chip).  Built once per
     * model when annotate first meets it, one per distinct member
     * class, and shared by the stages that class hosts.
     */
    const std::vector<const sim::Runtime *> &
    stageRuntimes(const shard::ShardedModel *m) const;

    /** Gang rule of @p model, or nullptr when it serves single-chip. */
    const GangSpec *gangSpec(const std::string &model) const;

    /** The fleet's SKU structure. */
    const FleetSkus &fleetSkus() const { return skus; }

  private:
    struct ModelInfo
    {
        /** Weight footprint [Mweight] (capability checks). */
        double mweight = 0.0;
        /** Full weight-reload cost [us]. */
        double reloadUs = 0.0;
    };

    /** How a gang model's members map onto the fleet. */
    struct GangRoute
    {
        std::vector<int> slotClasses;
        shard::PartitionConfig partition;
        /** Member slot SKUs (empty on a SKU-less fleet). */
        std::vector<ChipSku> slotSkus;
    };

    struct ArtifactInfo
    {
        double estServiceUs = 0.0;
        int safeLevel = 100;
    };

    struct GangInfo
    {
        double estServiceUs = 0.0;
        int safeLevel = 100;
        GangSlots slots;
        std::vector<int> slotClasses;
        /** Owned by ArtifactMeta::gangRuntimes. */
        std::vector<const sim::Runtime *> stageRuntimes;
    };

    const ModelInfo &modelInfo(const std::string &model);
    const GangRoute &gangRoute(const GangSpec &gang);
    /** Memoized keys of @p model's single-chip artifact @p art of
     * class @p cls. */
    const ArtifactInfo &artifactInfoOf(const std::string &model,
                                       const CompiledModel &art,
                                       int cls);
    /** Memoized keys of @p model's gang artifact @p sharded. */
    const GangInfo &gangInfoOf(const std::string &model,
                               const shard::ShardedModel &sharded,
                               const GangRoute &route);

    const FleetConfig *fcfg;
    power::Calibration cal;
    pim::PimConfig cfg;
    FleetSkus skus;
    /** Per-class V-f tables (safe-level derivation). */
    std::vector<power::VfTable> classTable;
    std::map<std::string, const GangSpec *> gangOf;
    std::map<std::string, ModelInfo> models;
    std::map<std::string, GangRoute> gangRoutes;
    /**
     * Keyed by (model, class) and by model, never by artifact
     * address: a bounded ModelCache frees evicted artifacts, and the
     * allocator may hand a freed address to another model's
     * artifact.  Every scheduling key is therefore a per-model
     * constant, which the engine's per-model queues rely on.
     */
    std::map<std::pair<std::string, int>, ArtifactInfo> artifactInfo;
    std::map<std::string, GangInfo> gangInfo;
    std::vector<std::unique_ptr<const sim::Runtime>> gangRuntimes;
};

/**
 * Per-member preparation of a gang dispatch: charge every member
 * chip its stage reload + retune (overlap does not apply -- gang
 * members load different stage weights than the single-chip artifact
 * that left the tail window), account usage, and rewrite the
 * member's resident/level/overlap state.
 *
 * @return the gang's preparation time [us]: the slowest member's
 *         reload + retune (members prepare in parallel)
 */
double prepareGangMembers(ChipPool &pool,
                          const std::vector<int> &member,
                          const ArtifactMeta::GangSlots &slots,
                          double serviceUs, bool useBooster,
                          double levelStepPct,
                          double retuneUsPerStep,
                          std::vector<ChipUsage> &usage);

} // namespace aim::serve

#endif // AIM_SERVE_DISPATCH_HH
