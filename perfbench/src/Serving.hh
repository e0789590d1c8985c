/**
 * @file
 * Serving-side plumbing shared by exact_hetero, overload_dispatch and
 * the matched probes: the two stream configurations, a warm fleet
 * set-up (compiled artifacts + per-SKU-class executors), request
 * execution exactly as stream::EventLoop performs it, the traced
 * serving replay and the dispatch-layer probes.
 */

#ifndef PERFBENCH_SERVING_HH
#define PERFBENCH_SERVING_HH

#include <memory>

#include "Spans.hh"
#include "serve/Dispatch.hh"
#include "stream/EventLoop.hh"

namespace perfbench
{

/** exact_hetero: exact service on the 2big+2small fleet, Transient
 * droop through the scheduled ISA path, a diurnal ResNet18 2-chip
 * gang plus GPT2 and MobileNetV2, bounded queue. */
aim::stream::StreamConfig heteroConfig(uint64_t seed, long requests,
                                       int threads);

/** overload_dispatch: sampled service (K=4) with the histogram digest
 * on a homogeneous 2-chip fleet, Poisson ResNet18+MobileNetV2 at
 * 60k req/s, FCFS, unbounded admission, no batching. */
aim::stream::StreamConfig overloadConfig(uint64_t seed, long requests,
                                         int threads);

/**
 * A warm fleet: every artifact of the stream's model mix compiled
 * into a fresh cache (exactly the keys stream::EventLoop looks up),
 * and one request executor per SKU class.  Construction is the
 * serving workloads' set-up.
 */
class ServingSetup
{
  public:
    explicit ServingSetup(const aim::stream::StreamConfig &scfg);
    ServingSetup(const ServingSetup &) = delete;
    ServingSetup &operator=(const ServingSetup &) = delete;

    /** The id-keyed request seed stream::EventLoop uses. */
    uint64_t requestSeed(long id) const;

    /** SKU class a single-chip request executes on in the probes. */
    int classFor(const aim::serve::QueuedRequest &q) const;

    /**
     * Execute one request as the loop does: a gang through
     * shard::ShardedRuntime with per-stage SKU environments, anything
     * else through its class's serve::RequestExecutor.
     */
    aim::sim::RunReport execute(const aim::serve::QueuedRequest &q,
                                uint64_t seed) const;

    /** Chip geometry / calibration / run config of class @p cls. */
    aim::pim::PimConfig pimOf(int cls) const;
    aim::power::Calibration calOf(int cls) const;
    aim::sim::RunConfig runConfigOf(int cls, uint64_t seed) const;

    const aim::pim::PimConfig cfg;
    const aim::power::Calibration cal;
    aim::stream::StreamConfig scfg;
    /** scfg.fleet with the ISA cost sentinels resolved as the loop
     * resolves them, so annotations hit the loop's cache keys. */
    aim::serve::FleetConfig fleet;
    aim::AimPipeline pipe;
    aim::serve::ModelCache cache;
    aim::serve::ArtifactMeta meta;
    std::vector<std::unique_ptr<const aim::serve::RequestExecutor>>
        executors;
    /** Host time spent compiling during construction [s]. */
    double compileS = 0.0;
};

/**
 * Run the configured stream once on @p setup's warm cache, over
 * @p horizon requests (0: the configured count) with fleet seed
 * @p fleetSeed (0: the configured seed).
 */
aim::stream::StreamReport serveOnce(ServingSetup &setup,
                                    long horizon = 0,
                                    uint64_t fleetSeed = 0);

/**
 * Traced serving replay of the first @p n requests of the stream:
 * serve.annotate, then shard.exec for gangs or serve.exec for
 * single-chip requests, whose execution is replayed through the
 * layers (aim.execute: sim.env + the Runtime::run replay) and checked
 * bit-identical to the executor and to sim::Runtime::run
 * (sim.runtime); on ISA fleets the first three also to isa.engine.
 * Returns the untraced wall [us] of the sim.runtime executions
 * (Runtime construction + run) for the overhead figure.
 */
double serveReplay(ServingSetup &setup, long n, Tracer &t, Result &res,
                   long *windows, long *replayed);

/** exec.speedup_2t: one batch of executor runs of the first @p n
 * requests on exec::ExecPool at 2 threads over 1 thread. */
void execSpeedup(ServingSetup &setup, long n, Result &res,
                 const std::string &note);

/** Dispatch-layer probes on the stream's own requests: trace
 * generation, annotation, FCFS picks at depth 1k and 16k, the
 * dispatch cost model and the histogram digest. */
void probeDispatch(ServingSetup &setup, Tracer &t, Result &res);

/** stream.cost_growth: host us/request at @p horizon over that at a
 * quarter of it. */
void costGrowth(ServingSetup &setup, long horizon, Result &res,
                const std::string &note);

} // namespace perfbench

#endif // PERFBENCH_SERVING_HH
