#include "stream/EventLoop.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "exec/ExecPool.hh"
#include "serve/Dispatch.hh"
#include "shard/ShardedRuntime.hh"
#include "sim/Runtime.hh"
#include "stream/TraceSource.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"
#include "util/Stats.hh"
#include "workload/ModelZoo.hh"

namespace aim::stream
{

namespace
{

/** FNV-1a of a model name plus, on a SKU class, "|" and the SKU
 * name: the per-(model, class) tag of the sampled-service seed
 * stream. */
uint64_t
sampleTag(const std::string &model, const serve::ChipSku *sku)
{
    uint64_t h = 1469598103934665603ULL;
    for (const char ch : sku ? model + "|" + sku->name : model) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Exact service executes up to this many requests per host thread
 * ahead of their dispatch: enough work per parallelFor to keep every
 * worker busy through the cost spread of a mixed-model stream, while
 * bounding the memoized reports.
 */
constexpr long kAheadPerThread = 16;

/** Heap event.  At equal times completions land before arrivals
 * (freed chips are dispatchable to requests arriving that instant)
 * and control ticks run last. */
struct Event
{
    enum Kind
    {
        Completion = 0,
        Arrival = 1,
        ControlTick = 2,
    };

    double tUs = 0.0;
    int kind = Arrival;
    long seq = 0;
    /** Completion payload. */
    double latencyUs = 0.0;
};

struct EventAfter
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.tUs != b.tUs)
            return a.tUs > b.tUs;
        if (a.kind != b.kind)
            return a.kind > b.kind;
        return a.seq > b.seq;
    }
};

/** Fixed-size ring of the most recent completion latencies; the
 * autoscaler's windowed-p99 source. */
class LatencyWindow
{
  public:
    explicit LatencyWindow(int size)
        : ring(static_cast<size_t>(std::max(size, 1)))
    {
    }

    void
    push(double latency_us)
    {
        ring[pos] = latency_us;
        pos = (pos + 1) % ring.size();
        filled = std::min(filled + 1, ring.size());
    }

    /** p99 over the window [us]; negative when empty. */
    double
    p99() const
    {
        if (filled == 0)
            return -1.0;
        std::vector<double> sorted(ring.begin(),
                                   ring.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           filled));
        std::sort(sorted.begin(), sorted.end());
        return util::percentileSorted(sorted, 99.0);
    }

  private:
    std::vector<double> ring;
    size_t pos = 0;
    size_t filled = 0;
};

} // namespace

std::string
validateStreamConfig(const StreamConfig &scfg)
{
    const std::string fleet = serve::validateFleetConfig(scfg.fleet);
    if (!fleet.empty())
        return util::detail::concat("fleet: ", fleet);
    const std::string scaler =
        validateAutoscalerConfig(scfg.autoscaler);
    if (!scaler.empty())
        return scaler;
    const std::string admission =
        validateAdmissionConfig(scfg.admission);
    if (!admission.empty())
        return admission;
    if (scfg.maxRequests < 0)
        return util::detail::concat(
            "maxRequests must be non-negative (0 = trace.requests), "
            "got ",
            scfg.maxRequests);
    if (scfg.controlTickUs < 0.0)
        return util::detail::concat(
            "controlTickUs must be non-negative (0 = no control "
            "ticks), got ",
            scfg.controlTickUs);
    if (scfg.autoscaler.enabled && !(scfg.controlTickUs > 0.0))
        return "autoscaler requires a positive controlTickUs (it "
               "only acts at control ticks)";
    if (scfg.autoscaler.enabled &&
        scfg.autoscaler.minChips > scfg.fleet.chips)
        return util::detail::concat(
            "autoscaler minChips ", scfg.autoscaler.minChips,
            " exceeds the fleet's ", scfg.fleet.chips, " chips");
    if (scfg.maxBatch < 1)
        return util::detail::concat(
            "maxBatch must be at least 1, got ", scfg.maxBatch);
    if (scfg.serviceSamples < 0)
        return util::detail::concat(
            "serviceSamples must be non-negative (0 = exact), got ",
            scfg.serviceSamples);
    if (scfg.transientCarry && scfg.serviceSamples > 0)
        return "transientCarry executes requests at dispatch and "
               "excludes sampled service (serviceSamples must be 0)";
    return {};
}

EventLoop::EventLoop(const pim::PimConfig &cfg,
                     const power::Calibration &cal,
                     const StreamConfig &scfg)
    : cfg(cfg), cal(cal), scfg(scfg)
{
    const std::string problem = validateStreamConfig(scfg);
    if (!problem.empty())
        aim_fatal("invalid StreamConfig: ", problem);
    // Resolve the "derive" sentinel: the fleet's whole-model reload
    // pricing is the single source of truth for the instruction-grain
    // costs (see FleetConfig::reloadUsPerMweight).
    serve::FleetConfig &fleet = this->scfg.fleet;
    if (fleet.options.isaLoadUsPerMword < 0.0)
        fleet.options.isaLoadUsPerMword = fleet.reloadUsPerMweight;
    if (fleet.options.isaRetuneUs < 0.0)
        fleet.options.isaRetuneUs = fleet.retuneUsPerStep;
}

StreamReport
EventLoop::run(serve::ModelCache &cache)
{
    TraceSource source(scfg.trace);
    return runFrom(cache,
                   scfg.maxRequests > 0 ? scfg.maxRequests
                                        : scfg.trace.requests,
                   [&source] { return source.next(); });
}

StreamReport
EventLoop::run(serve::ModelCache &cache,
               const std::vector<serve::Request> &trace)
{
    // Ids index the latency vectors, and a later arrival must not
    // precede an earlier one in simulated time.
    const auto n = static_cast<long>(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        aim_assert(trace[i].id >= 0 && trace[i].id < n,
                   "request ids must be dense in [0, N), got ",
                   trace[i].id);
        aim_assert(i == 0 || trace[i].arrivalUs >= trace[i - 1].arrivalUs,
                   "trace must be sorted by arrival time");
    }
    size_t next = 0;
    return runFrom(cache, static_cast<long>(trace.size()),
                   [&] { return trace[next++]; });
}

StreamReport
EventLoop::runFrom(serve::ModelCache &cache, long horizon,
                   const std::function<serve::Request()> &pull)
{
    const serve::FleetConfig &fcfg = scfg.fleet;
    const double work_scale = fcfg.options.workScale;
    const bool exact_service =
        scfg.serviceSamples == 0 && !scfg.transientCarry;

    StreamReport rep;
    rep.policy = fcfg.policy;
    rep.backend = fcfg.options.irBackend;
    rep.isa = fcfg.options.useIsa;
    rep.chips.resize(fcfg.chips);
    const long cache_hits = cache.hits();
    const long cache_misses = cache.misses();
    const long cache_evictions = cache.evictions();

    // A SKU-less fleet is one class on the constructor's (cfg, cal)
    // pair: every per-class structure below has one entry.
    serve::ArtifactMeta meta(fcfg, cal, cfg);
    const serve::FleetSkus &skus = meta.fleetSkus();
    const int nclasses = skus.classes();
    serve::ChipPool pool(fcfg.chips);
    const serve::Scheduler sched(fcfg.policy);
    const auto executors =
        serve::classExecutors(skus, cfg, cal, fcfg.options);
    exec::ExecPool exec(fcfg.threads);
    Autoscaler scaler(scfg.autoscaler);
    AdmissionController admission(scfg.admission);
    LatencyWindow window(scfg.autoscaler.window);
    LatencyHistogram hist;

    // Gangs need their member count active no matter what the
    // autoscaler wants; the shrink floor honours the largest gang.
    int min_active = scfg.autoscaler.enabled
                         ? std::max(scfg.autoscaler.minChips, 1)
                         : fcfg.chips;
    for (const auto &gang : fcfg.gangs)
        min_active = std::max(min_active, gang.partition.chips);
    min_active = std::min(min_active, fcfg.chips);
    // The count floor above is capability-blind: on a mixed fleet it
    // can be satisfied entirely by chips too small to host a gang
    // member, leaving acquireGang nothing to take.  Per-class floors
    // keep each gang's slot classes active.
    std::vector<int> chip_class(static_cast<size_t>(fcfg.chips));
    for (int c = 0; c < fcfg.chips; ++c)
        chip_class[static_cast<size_t>(c)] = skus.classOf(c);
    pool.setClassOf(std::move(chip_class));
    std::vector<int> class_floor(static_cast<size_t>(nclasses), 0);
    for (const auto &gang : fcfg.gangs) {
        workload::ModelSpec spec;
        if (!workload::findModelByName(gang.model, spec))
            continue;
        const double share =
            spec.totalWeights() / 1e6 / gang.partition.chips;
        std::vector<int> need(static_cast<size_t>(nclasses), 0);
        for (const int cls :
             skus.gangSlotClasses(gang.partition.chips, share))
            ++need[static_cast<size_t>(cls)];
        for (int cls = 0; cls < nclasses; ++cls)
            class_floor[static_cast<size_t>(cls)] =
                std::max(class_floor[static_cast<size_t>(cls)],
                         need[static_cast<size_t>(cls)]);
    }
    pool.setClassFloor(std::move(class_floor));
    // An autoscaled run starts at the floor and earns its chips
    // (deactivateOne respects the per-class floors, so a mixed
    // fleet keeps its gang-capable chips up).
    if (scfg.autoscaler.enabled)
        while (pool.activeCount() > min_active &&
               pool.deactivateOne(min_active))
            ;

    // Id-keyed request seeds: every policy sees the same chip noise
    // per request.
    const util::Rng seeder(fcfg.seed);
    const auto request_seed = [&seeder](long id) {
        const uint64_t s =
            seeder.fork(static_cast<uint64_t>(id) + 1).next();
        return s != 0 ? s : 1;
    };

    // Executed-ahead reports, keyed by request id (single-chip and
    // gang requests apart).  Dispatch consumes a request's report and
    // admission drops a shed one's, so the maps stay within the queue
    // plus the ahead window.
    std::map<long, serve::ExecResult> ready;
    std::map<long, shard::ShardReport> shard_ready;
    // Sampled-service pools, keyed by (model, SKU class).
    std::map<std::pair<std::string, int>,
             std::vector<serve::ExecResult>>
        samples;
    // Per-chip electrical state (transientCarry).
    std::vector<std::unique_ptr<power::IrState>> carry(
        static_cast<size_t>(fcfg.chips));

    std::vector<double> exact_lat, exact_queue;
    if (!scfg.histogramLatency) {
        exact_lat.assign(static_cast<size_t>(horizon), -1.0);
        exact_queue.assign(static_cast<size_t>(horizon), -1.0);
    }

    std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
    long seq = 0;
    // Admitted requests, one FIFO per model; the scheduler ranks the
    // heads (see serve::Scheduler::pickHead).
    serve::ModelQueues pending;
    // Requests pulled from the source ahead of their arrival, in
    // arrival order.  Exact service annotates them at pull (the
    // ahead window executes them); the other modes at admission.
    std::deque<serve::QueuedRequest> upcoming;
    long pulled = 0;
    long generated = 0;
    long completed = 0;
    double first_arrival = 0.0;
    double last_completion = 0.0;

    const auto pull_one = [&] {
        serve::QueuedRequest q;
        q.request = pull();
        if (exact_service)
            q = meta.annotate(q.request, cache);
        upcoming.push_back(std::move(q));
        ++pulled;
    };

    // A gang's grid fans out on the loop's pool at dispatch or as the
    // only item of an execute-ahead fan-out, and runs inline inside a
    // fan-out of several.
    const auto execute_gang = [&](const serve::QueuedRequest &q) {
        shard::ShardRuntimeConfig sc;
        sc.microBatches = meta.gangSpec(q.request.model)->microBatches;
        sc.interconnect = fcfg.interconnect;
        return shard::ShardedRuntime(cfg, cal, sc)
            .execute(*q.sharded, request_seed(q.request.id),
                     meta.stageRuntimes(q.sharded.get()), &exec);
    };

    // The SKU class a single-chip request is certain to land on: the
    // one class that fits it and has chips, or -1 when several do.
    const auto landing_class = [&](const serve::QueuedRequest &q) {
        int only = -1;
        for (int cls = 0; cls < nclasses; ++cls)
            if (q.compiledByClass[static_cast<size_t>(cls)] &&
                skus.hosts(cls)) {
                if (only >= 0)
                    return -1;
                only = cls;
            }
        return only;
    };

    // Execute ahead only what dispatch is certain to read: gangs
    // (their slot classes are fixed) and single-chip requests that
    // one class alone can host.  The rest execute at dispatch.
    const auto awaits_report = [&](const serve::QueuedRequest &q) {
        return q.sharded ? shard_ready.count(q.request.id) == 0
                         : landing_class(q) >= 0 &&
                               ready.count(q.request.id) == 0;
    };

    const auto drop_reports = [&](long id) {
        ready.erase(id);
        shard_ready.erase(id);
    };

    // Execute ahead: when a dispatched request awaits its report,
    // pull the source up to the ahead window and execute every queued
    // or pulled-ahead request that awaits one, concurrently on the
    // pool.  Reports are pure functions of (artifact, SKU class,
    // id-keyed seed), so neither the thread count nor the batching
    // changes a single bit of them.
    const long ahead_window = kAheadPerThread * exec.threads();
    const auto execute_ahead = [&] {
        while (static_cast<long>(upcoming.size()) < ahead_window &&
               pulled < horizon)
            pull_one();
        std::vector<const serve::QueuedRequest *> todo;
        for (int m = 0; m < pending.queues(); ++m)
            for (size_t i = 0; i < pending.depth(m); ++i)
                if (awaits_report(pending.at(m, i)))
                    todo.push_back(&pending.at(m, i));
        for (const auto &q : upcoming)
            if (awaits_report(q))
                todo.push_back(&q);
        // Longest first: workers pull items in order, so the short
        // executions left at the end even out the workers' finish
        // times (a GPT2 run pulled last would idle the others for its
        // whole length).
        std::stable_sort(todo.begin(), todo.end(),
                         [](const serve::QueuedRequest *a,
                            const serve::QueuedRequest *b) {
                             return a->estServiceUs > b->estServiceUs;
                         });
        std::vector<serve::ExecResult> runs(todo.size());
        std::vector<shard::ShardReport> shard_runs(todo.size());
        exec.parallelFor(
            static_cast<long>(todo.size()), [&](long i) {
                const serve::QueuedRequest &q =
                    *todo[static_cast<size_t>(i)];
                if (q.sharded) {
                    shard_runs[static_cast<size_t>(i)] =
                        execute_gang(q);
                    return;
                }
                const auto cls =
                    static_cast<size_t>(landing_class(q));
                runs[static_cast<size_t>(i)] = executors[cls]->run(
                    *q.compiledByClass[cls],
                    request_seed(q.request.id));
            });
        for (size_t i = 0; i < todo.size(); ++i) {
            const long id = todo[i]->request.id;
            if (todo[i]->sharded)
                shard_ready[id] = std::move(shard_runs[i]);
            else
                ready[id] = std::move(runs[i]);
        }
    };

    // K id-seeded reports per (model, SKU class), built once on
    // first need.
    const auto model_samples =
        [&](const std::string &model,
            const CompiledModel &compiled, int cls)
        -> const std::vector<serve::ExecResult> & {
        const auto key = std::make_pair(model, cls);
        const auto it = samples.find(key);
        if (it != samples.end())
            return it->second;
        std::vector<serve::ExecResult> v(
            static_cast<size_t>(scfg.serviceSamples));
        const uint64_t tag = sampleTag(model, skus.sku(cls));
        exec.parallelFor(scfg.serviceSamples, [&](long k) {
            uint64_t s = seeder.fork(0x5a3d17)
                             .fork(tag)
                             .fork(static_cast<uint64_t>(k) + 1)
                             .next();
            if (s == 0)
                s = 1;
            v[static_cast<size_t>(k)] =
                executors[static_cast<size_t>(cls)]->run(compiled,
                                                         s);
        });
        return samples.emplace(key, std::move(v)).first->second;
    };

    // Record one finished request at dispatch time (the values are
    // final then; the digests fold at the completion event so the
    // autoscaler's window sees completions in time order).
    const auto account = [&](const serve::Request &request,
                             double queue_us, double latency_us,
                             double finish) {
        if (request.sloUs > 0.0 && latency_us > request.sloUs)
            ++rep.sloViolations;
        if (!scfg.histogramLatency) {
            exact_lat[static_cast<size_t>(request.id)] = latency_us;
            exact_queue[static_cast<size_t>(request.id)] = queue_us;
        }
        last_completion = std::max(last_completion, finish);
        heap.push(Event{finish, Event::Completion, ++seq,
                        latency_us});
    };

    // Dispatch one request (and, with maxBatch > 1, its same-model
    // followers) on chip c at time now.  Returns false when nothing
    // in the queue is eligible for this chip.
    std::vector<serve::QueuedRequest> batch;
    const auto dispatch_one = [&](int c, double now) -> bool {
        const int cls = pool.classOf(c);
        serve::ChipContext ctx;
        ctx.chip = c;
        ctx.residentModel = pool.slot(c).resident;
        ctx.safeLevel = pool.slot(c).safeLevel;
        ctx.skuClass = cls;
        ctx.capacityMweight = skus.capacity(cls);
        const int m = sched.pickHead(pending, ctx);
        if (m < 0)
            return false;

        // The batch: the picked head plus the up to maxBatch-1
        // requests queued behind it -- its model's next admissions --
        // co-dispatched behind one reload/retune.  Gangs never batch.
        const size_t take =
            pending.at(m, 0).sharded
                ? 1
                : std::min(pending.depth(m),
                           static_cast<size_t>(scfg.maxBatch));
        if (exact_service)
            for (size_t i = 0; i < take; ++i)
                if (awaits_report(pending.at(m, i))) {
                    execute_ahead();
                    break;
                }
        batch.clear();
        for (size_t i = 0; i < take; ++i)
            batch.push_back(pending.pop(m));
        const serve::QueuedRequest &q = batch.front();

        if (q.sharded) {
            const auto &slots = meta.gangSlots(q.sharded.get());
            const auto &slot_classes =
                meta.gangClasses(q.sharded.get());
            auto member = pool.acquireGang(slot_classes);
            // The autoscaler may have shrunk the pool below the
            // gang's needs between arrivals (on a mixed fleet the
            // capability-blind count floor can be satisfied by
            // chips too small to host a member).  Reactivate
            // capable chips on demand instead of crashing the loop.
            while (member.empty() &&
                   pool.activateOneOfClasses(slot_classes)) {
                ++rep.gangReactivations;
                member = pool.acquireGang(slot_classes);
            }
            aim_assert(!member.empty(),
                       "gang for '", q.request.model,
                       "' cannot acquire ", q.gangChips,
                       " capable chips even with every chip active "
                       "(validateFleetConfig should have rejected "
                       "this fleet)");
            double start = now;
            for (int m : member)
                start = std::max(start, pool.slot(m).freeAtUs);

            shard::ShardReport srep;
            const auto it = shard_ready.find(q.request.id);
            if (it != shard_ready.end()) {
                srep = std::move(it->second);
                shard_ready.erase(it);
            } else {
                srep = execute_gang(q);
            }
            const double service = srep.makespanUs / work_scale;
            const double prep = serve::prepareGangMembers(
                pool, member, slots, service,
                fcfg.options.useBooster, cal.levelStepPct,
                fcfg.retuneUsPerStep, rep.chips);
            const double finish = start + prep + service;
            for (int m : member)
                pool.slot(m).freeAtUs = finish;
            rep.totalMacs += srep.totalMacs / work_scale;
            rep.irFailures += srep.merged.failures;
            rep.stallWindows += srep.merged.stallWindows;
            ++rep.gangDispatches;
            account(q.request, start - q.request.arrivalUs,
                    finish - q.request.arrivalUs, finish);
            return true;
        }

        auto &chip = pool.slot(c);
        auto &usage = rep.chips[static_cast<size_t>(c)];
        const int safe_level =
            q.safeLevelByClass[static_cast<size_t>(cls)];
        if (!skus.fits(cls, q.requiredMweight))
            ++rep.placementViolations;
        const serve::DispatchCost cost = serve::dispatchCost(
            chip, q.request.model, safe_level,
            meta.reloadUs(q.request.model), fcfg.options.useBooster,
            cal.levelStepPct, fcfg.retuneUsPerStep, chip.overlapUs);
        if (cost.modelSwitch)
            ++usage.modelSwitches;
        rep.reloadOverlapSavedUs += cost.overlapSavedUs;
        rep.batchedRequests += static_cast<long>(batch.size()) - 1;

        double cursor = now + cost.reloadUs + cost.retuneUs;
        usage.reloadUs += cost.reloadUs;
        usage.retuneUs += cost.retuneUs;
        // Tail window the chip keeps after this dispatch: the last
        // executed batch member's.
        double tail_overlap = 0.0;
        for (const auto &b : batch) {
            const long id = b.request.id;
            // The artifact of the landing chip's class (batch
            // followers share the leader's model, hence its fit).
            const CompiledModel &compiled =
                *b.compiledByClass[static_cast<size_t>(cls)];
            serve::ExecResult owned;
            const serve::ExecResult *res = &owned;
            if (scfg.serviceSamples > 0) {
                res = &model_samples(b.request.model, compiled,
                                     cls)[static_cast<size_t>(
                    request_seed(id) %
                    static_cast<uint64_t>(scfg.serviceSamples))];
            } else if (const auto it = ready.find(id);
                       it != ready.end()) {
                owned = std::move(it->second);
                ready.erase(it);
            } else {
                // Executed now, on the landing chip's class, with its
                // rounds on the pool (serial under a carry).
                owned = executors[static_cast<size_t>(cls)]->run(
                    compiled, request_seed(id),
                    scfg.transientCarry ? &carry[static_cast<size_t>(c)]
                                        : nullptr,
                    &exec);
            }
            const double service_us =
                res->serviceNs / 1000.0 / work_scale;
            rep.totalMacs += res->run.totalMacs / work_scale;
            rep.irFailures += res->run.failures;
            rep.stallWindows += res->run.stallWindows;
            rep.scheduleSavedUs += res->scheduleSavedUs;
            // Sampled reports are shared across requests, so they
            // leave no tail window behind.
            tail_overlap =
                scfg.serviceSamples > 0 ? 0.0 : res->overlapUs;
            cursor += service_us;
            usage.busyUs += service_us;
            ++usage.served;
            account(b.request, now - b.request.arrivalUs,
                    cursor - b.request.arrivalUs, cursor);
        }
        chip.freeAtUs = cursor;
        chip.resident = q.request.model;
        chip.safeLevel = safe_level;
        chip.overlapUs = tail_overlap;
        return true;
    };

    // Free chips take work in (freeAtUs, id) order; a chip with no
    // eligible work passes its turn to the next, and dispatch stops
    // when none can take anything.
    std::vector<int> free_chips;
    const auto dispatch_all = [&](double now) {
        while (pending.size() > 0) {
            free_chips.clear();
            for (int i = 0; i < pool.size(); ++i)
                if (pool.slot(i).active &&
                    pool.slot(i).freeAtUs <= now)
                    free_chips.push_back(i);
            std::sort(free_chips.begin(), free_chips.end(),
                      [&](int a, int b) {
                          const double fa = pool.slot(a).freeAtUs;
                          const double fb = pool.slot(b).freeAtUs;
                          if (fa != fb)
                              return fa < fb;
                          return a < b;
                      });
            bool dispatched = false;
            for (const int c : free_chips)
                if ((dispatched = dispatch_one(c, now)))
                    break;
            if (!dispatched)
                break;
        }
    };

    if (horizon > 0) {
        pull_one();
        first_arrival = upcoming.front().request.arrivalUs;
        heap.push(
            Event{first_arrival, Event::Arrival, ++seq, 0.0});
    }
    if (scfg.controlTickUs > 0.0)
        heap.push(Event{scfg.controlTickUs, Event::ControlTick,
                        ++seq, 0.0});

    while (!heap.empty()) {
        const double now = heap.top().tUs;
        // Drain every event of this instant (completions, then
        // arrivals, then ticks) before dispatching, so the
        // dispatcher sees exactly the requests that have arrived by
        // now.
        while (!heap.empty() && heap.top().tUs == now) {
            const Event ev = heap.top();
            heap.pop();
            switch (ev.kind) {
              case Event::Completion:
                ++completed;
                window.push(ev.latencyUs);
                if (scfg.histogramLatency)
                    hist.record(ev.latencyUs);
                break;

              case Event::Arrival: {
                serve::QueuedRequest q = std::move(upcoming.front());
                upcoming.pop_front();
                ++generated;
                if (admission.admit(pending.size()))
                    pending.push(
                        exact_service ? std::move(q)
                                      : meta.annotate(q.request, cache));
                else
                    drop_reports(q.request.id);
                if (upcoming.empty() && pulled < horizon)
                    pull_one();
                if (!upcoming.empty())
                    heap.push(Event{upcoming.front().request.arrivalUs,
                                    Event::Arrival, ++seq, 0.0});
                break;
              }

              case Event::ControlTick: {
                const double p99 = window.p99();
                const ScaleAction action = scaler.tick(
                    now, p99, pending.size(), pool.activeCount());
                if (action == ScaleAction::Up &&
                    pool.activateOne())
                    ++rep.scaleUps;
                else if (action == ScaleAction::Down &&
                         pool.deactivateOne(min_active))
                    ++rep.scaleDowns;
                rep.trajectory.push_back({now, pool.activeCount(), p99,
                                          pending.size(),
                                          admission.shedRate()});
                // Keep ticking while the run is live; an empty heap
                // here means all arrivals are served and drained.
                if (!heap.empty())
                    heap.push(Event{now + scfg.controlTickUs,
                                    Event::ControlTick, ++seq,
                                    0.0});
                break;
              }
            }
        }
        dispatch_all(now);
    }

    rep.arrivals = generated;
    rep.admitted = admission.admitted();
    rep.shed = admission.shed();
    rep.requests = completed;
    rep.makespanUs =
        completed > 0 ? last_completion - first_arrival : 0.0;
    if (scfg.histogramLatency) {
        rep.p50Us = hist.percentile(50.0);
        rep.p95Us = hist.percentile(95.0);
        rep.p99Us = hist.percentile(99.0);
        rep.meanUs = hist.mean();
    } else {
        std::vector<double> sorted;
        sorted.reserve(exact_lat.size());
        double sum = 0.0;
        for (const double l : exact_lat)
            if (l >= 0.0) {
                sorted.push_back(l);
                sum += l;
            }
        // Nothing completed: the percentiles stay 0, as the
        // histogram digest reports them.
        if (!sorted.empty()) {
            std::sort(sorted.begin(), sorted.end());
            rep.p50Us = util::percentileSorted(sorted, 50.0);
            rep.p95Us = util::percentileSorted(sorted, 95.0);
            rep.p99Us = util::percentileSorted(sorted, 99.0);
            rep.meanUs = sum / static_cast<double>(sorted.size());
        }
        rep.latencyUs = std::move(exact_lat);
        rep.queueUs = std::move(exact_queue);
    }
    rep.cacheHits = cache.hits() - cache_hits;
    rep.cacheMisses = cache.misses() - cache_misses;
    rep.cacheEvictions = cache.evictions() - cache_evictions;
    return rep;
}

} // namespace aim::stream
