/**
 * @file
 * The serving engine: a discrete-event loop over a request source.
 *
 * It serves a lazy TraceSource stream built from
 * StreamConfig::trace (run(cache)), or a finite, materialized trace
 * (run(cache, trace), for hand-edited traces).  Both yield the same
 * report bits on the same requests.  Time advances through a
 * time-ordered event heap of three event kinds:
 *
 *   Arrival     -- the source's next request reaches the front door;
 *                  admission control admits it into its model's
 *                  pending FIFO or sheds it
 *   Completion  -- a dispatched request finishes; its latency lands
 *                  in the digests and the freed chip can take work
 *   ControlTick -- the periodic control plane runs: the autoscaler
 *                  grows/shrinks the active chip pool against the
 *                  windowed p99, and a trajectory sample is recorded
 *
 * After the events of a timestamp drain, the dispatcher places
 * queued requests on free chips -- earliest-free chip first, the
 * serve::Scheduler policy picking among the requests the chip's SKU
 * class can hold -- until chips or work run out; a SKU-less fleet is
 * one class.  Memory is bounded by the queue depth, the in-flight
 * work and the execute-ahead window, never by the stream length.
 *
 * Pending requests wait in one FIFO per model (serve::ModelQueues),
 * and a pick ranks only the queue heads (Scheduler::pickHead), so a
 * dispatch costs O(models) however deep the backlog.  That returns
 * the request a scan of the whole queue would because every rank key
 * but arrival is a per-model constant (serve::ArtifactMeta memoizes
 * them per model and SKU class) and requests are admitted in arrival
 * order -- the source's arrivals must not decrease.  Batch fill takes
 * the leader's own queue's next requests.
 *
 * Service-time modes: exact (every request executes on the chip
 * model) and sampled (per model and SKU class, K seeded RunReports
 * are drawn once and requests sample among them by their id-keyed
 * seed) -- the latter is what makes a day-long million-request bench
 * tractable while keeping per-request variation.  Exact service
 * executes each request once, on the SKU class it lands on.  A
 * report is a pure function of (artifact, SKU class, id-keyed seed),
 * so whatever dispatch is certain to read executes ahead: gangs
 * (their slot classes are fixed) and single-chip requests that one
 * class alone can host (it fits them and has chips -- every request
 * of a one-class fleet).  When a dispatched request of that kind has
 * no report yet, the loop pulls the source a fixed multiple of the
 * host thread count ahead and executes every queued or pulled-ahead
 * request of that kind that lacks one in a single exec::ExecPool
 * fan-out, longest predicted service first so the threads finish
 * together; a gang's grid runs inline in its item unless it is the
 * fan-out's only one.  A request that several classes could host
 * executes at dispatch on the landing chip's class instead, its
 * rounds spread over the same pool
 * (Runtime::run / isa::Engine::run), and a gang dispatched without a
 * report fans its grid out there too.  Reports are therefore
 * bit-identical across --threads counts, and requests that admission
 * later sheds simply drop theirs (they were annotated at pull, so
 * they still count in the cache counters).  With
 * StreamConfig::transientCarry, requests execute at dispatch with
 * their rounds serial, and thread each chip's settled electrical
 * state into the next request on that chip (power::IrState burst
 * continuity).
 */

#ifndef AIM_STREAM_EVENTLOOP_HH
#define AIM_STREAM_EVENTLOOP_HH

#include <functional>
#include <string>
#include <vector>

#include "serve/Fleet.hh"
#include "serve/ModelCache.hh"
#include "serve/Trace.hh"
#include "stream/AdmissionController.hh"
#include "stream/Autoscaler.hh"
#include "stream/StreamReport.hh"

namespace aim::stream
{

/** Tuning of a streaming serve run. */
struct StreamConfig
{
    /** Fleet shape, policy, execution options, seed, threads. */
    serve::FleetConfig fleet;
    /**
     * Arrival process of the lazy source.  Only run(cache) reads it,
     * and the TraceSource it builds rejects a bad config; the
     * finite-trace run ignores it.
     */
    serve::TraceConfig trace;
    /**
     * Requests to stream before the source closes; 0 falls back to
     * trace.requests.  The run always drains to completion.
     */
    long maxRequests = 0;
    /** Control-plane period [us]; 0 disables control ticks. */
    double controlTickUs = 0.0;
    AutoscalerConfig autoscaler;
    AdmissionConfig admission;
    /**
     * Dynamic batching: when a chip dispatches, co-dispatch up to
     * maxBatch-1 further queued requests of the same model behind
     * the leader, paying the reload/retune once.  1 = no batching.
     */
    int maxBatch = 1;
    /**
     * 0 = exact service (every request executes on the chip model).
     * K > 0 = sampled service: per model and SKU class, K id-seeded
     * RunReports are executed once and each request draws one by its
     * request seed.
     */
    long serviceSamples = 0;
    /**
     * false = exact per-request latency vectors (memory grows with
     * the horizon); true = fixed log-bucket histogram (O(1) memory,
     * the day-long-bench mode).
     */
    bool histogramLatency = false;
    /**
     * Thread each chip's settled electrical state into the next
     * request on that chip (power::IrState; effective with the
     * Transient droop backend).  Forces serial execution at
     * dispatch, so it excludes sampled service.
     */
    bool transientCarry = false;
};

/**
 * Empty when valid, else the first problem.  StreamConfig::trace is
 * not checked here: TraceSource checks it where run(cache) reads it.
 */
std::string validateStreamConfig(const StreamConfig &scfg);

/** The streaming serving engine.  One instance per run. */
class EventLoop
{
  public:
    /** Fatal on an invalid StreamConfig. */
    EventLoop(const pim::PimConfig &cfg,
              const power::Calibration &cal,
              const StreamConfig &scfg);

    /**
     * Stream the configured horizon to completion.  Artifacts come
     * from @p cache (shared and warm across runs); the report's
     * cache counters are deltas over this run.
     */
    StreamReport run(serve::ModelCache &cache);

    /**
     * Serve the finite @p trace instead of the configured source:
     * its requests arrive in vector order and the horizon is its
     * size (StreamConfig::trace and maxRequests are not read).  Ids
     * must lie in [0, trace.size()) and arrivals must not decrease;
     * either violation is fatal.
     */
    StreamReport run(serve::ModelCache &cache,
                     const std::vector<serve::Request> &trace);

  private:
    /** The loop itself, over @p horizon requests of @p pull. */
    StreamReport runFrom(serve::ModelCache &cache, long horizon,
                         const std::function<serve::Request()> &pull);

    pim::PimConfig cfg;
    power::Calibration cal;
    StreamConfig scfg;
};

} // namespace aim::stream

#endif // AIM_STREAM_EVENTLOOP_HH
