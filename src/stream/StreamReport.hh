/**
 * @file
 * Outcome of a streaming serve run: throughput, latency digest,
 * admission/shedding accounting, autoscaler trajectory, per-chip
 * usage and model-cache pressure.
 *
 * Latency lives in one of two digests, chosen by the engine's
 * config.  Exact mode keeps per-request latency/queue vectors
 * indexed by request id -- what the report goldens
 * (tests/serve/ServeGoldenTest) hash bit for bit.  Histogram
 * mode folds every completion into fixed log-spaced buckets, so a
 * day-long stream of millions of requests reports percentiles in
 * O(1) memory (the bench's bounded-RSS requirement); percentiles
 * are then bucket-resolution approximations (~9% worst-case,
 * 2^(1/8) bucket ratio).
 */

#ifndef AIM_STREAM_STREAMREPORT_HH
#define AIM_STREAM_STREAMREPORT_HH

#include <array>
#include <string>
#include <vector>

#include "power/IrBackend.hh"
#include "serve/Fleet.hh"
#include "serve/Scheduler.hh"

namespace aim::stream
{

/** Fixed-size log-bucket latency accumulator. */
class LatencyHistogram
{
  public:
    /** Fold one completion [us]. */
    void record(double latencyUs);

    /** Completions recorded. */
    long count() const { return total; }

    /**
     * Approximate percentile [us] (p in [0, 100]); 0 when empty.
     * Resolution is the bucket ratio 2^(1/8) (~9%).
     */
    double percentile(double p) const;

    /** Mean of the recorded latencies (exact, not bucketed) [us]. */
    double mean() const { return total > 0 ? sumUs / total : 0.0; }

  private:
    /** Lowest resolvable latency [us]; below folds into bucket 0. */
    static constexpr double minUs = 0.1;
    /** 8 buckets per octave over ~2^40 of dynamic range. */
    static constexpr int bucketCount = 320;

    std::array<long, bucketCount> buckets{};
    long total = 0;
    double sumUs = 0.0;
};

/** One control-tick sample of the run's trajectory. */
struct ControlSample
{
    /** Tick time [us]. */
    double tUs = 0.0;
    /** Dispatchable chips after the tick's scaling action. */
    int activeChips = 0;
    /** Windowed p99 the autoscaler saw [us]; -1 = no window yet. */
    double windowP99Us = -1.0;
    /** Admitted requests waiting for a chip at the tick. */
    long queueDepth = 0;
    /** Cumulative shed fraction at the tick. */
    double shedRate = 0.0;
};

/** Everything an EventLoop::run produces. */
struct StreamReport
{
    serve::SchedPolicy policy = serve::SchedPolicy::Fcfs;
    power::IrBackendKind backend = power::IrBackendKind::Analytic;
    /** Executions ran on the instruction-level ISA engine. */
    bool isa = false;
    /** Reload time hidden under trailing compute on model switches
     * [us] (ISA path only; 0 on the round-level path). */
    double reloadOverlapSavedUs = 0.0;
    /** Scheduled-vs-in-order makespan savings summed over requests
     * [us] (isaSchedule artifacts only; 0 otherwise). */
    double scheduleSavedUs = 0.0;

    /** Arrivals generated (admitted + shed). */
    long arrivals = 0;
    /** Requests admitted past admission control. */
    long admitted = 0;
    /** Requests shed at admission. */
    long shed = 0;
    /** Requests completed (== admitted when the run drains). */
    long requests = 0;
    /** First arrival to last completion [us]. */
    double makespanUs = 0.0;
    /** Completions whose latency exceeded their SLO. */
    long sloViolations = 0;
    /** Full-inference MAC work served (workScale extrapolated). */
    double totalMacs = 0.0;
    /** IRFailures raised across all request executions. */
    long irFailures = 0;
    /** Runtime windows lost to recompute / V-f settling. */
    long stallWindows = 0;
    /** Requests dispatched to multi-chip gangs. */
    long gangDispatches = 0;
    /** Requests placed on a chip whose SKU cannot hold their model
     * (always 0 when capability-aware placement works; the
     * heterogeneous-fleet test suites assert on it). */
    long placementViolations = 0;
    /** Chips reactivated on demand because a gang arrived while the
     * autoscaler had shrunk its capable chips below the gang size
     * (the recovery path of the acquireGang crash fix). */
    long gangReactivations = 0;
    /** Requests co-dispatched behind a batch leader (dynamic
     * batching; they paid no reload). */
    long batchedRequests = 0;
    /** Autoscaler grow / shrink actions taken. */
    long scaleUps = 0;
    long scaleDowns = 0;
    /** ModelCache counter deltas over the run. */
    long cacheHits = 0;
    long cacheMisses = 0;
    long cacheEvictions = 0;

    /** Per-chip usage, indexed by chip id (all chips, active or
     * not). */
    std::vector<serve::ChipUsage> chips;

    /** Latency percentiles [us] (exact or histogram-approximate,
     * per the engine's latency mode). */
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    /** Mean end-to-end latency [us] (exact in both modes). */
    double meanUs = 0.0;

    /**
     * Exact per-request digests, indexed by request id; only filled
     * in exact latency mode (empty in histogram mode).  Shed
     * requests hold -1.
     */
    std::vector<double> latencyUs;
    std::vector<double> queueUs;

    /** Control-tick trajectory, in tick order. */
    std::vector<ControlSample> trajectory;

    /** Shed fraction of all arrivals. */
    double shedRate() const;

    /** Completions per second of makespan. */
    double throughputRps() const;

    /** Aggregate effective throughput over the makespan [TOPS]. */
    double aggregateTops() const;

    /** Model switches summed over chips. */
    long totalModelSwitches() const;

    /** Human-readable summary (headline lines + tables). */
    std::string render() const;
};

} // namespace aim::stream

#endif // AIM_STREAM_STREAMREPORT_HH
