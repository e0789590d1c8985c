/**
 * @file
 * The benchmark's workloads.  Each fills a Result with either the
 * end-to-end metrics (untraced) or the per-layer metrics (traced
 * replay), checks the simulated outputs and sets the sim_digest of
 * its fixed, seed-determined work so the two modes can be compared.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "Bench.hh"
#include "Spans.hh"

namespace perfbench
{

/** aim_cli flow: cold compiles of the conv model set, then seeded
 * AimPipeline::execute requests. */
Result runCliFlow(const Args &args);

/** Exact-physics EventLoop serving on the 2big+2small SKU fleet. */
Result runExactHetero(const Args &args);

/** Overloaded FCFS EventLoop on a homogeneous 2-chip fleet. */
Result runOverloadDispatch(const Args &args);

/**
 * Matched-input layer probes shared by every traced run: windows/s of
 * the three droop backends on one artifact (exact_hetero's GPT2 big
 * SKU artifact, one seed), the standalone transient PDN step, FCFS
 * picks on deep queues, the dispatch cost model and the histogram
 * digest.  Figures a workload's own replay already produced keep
 * their replay values.
 */
void runMatchedProbes(const Args &args, Tracer &t, Result &res);

/**
 * The end-to-end metrics of an untraced run: setup_s, compile_s and
 * host_rps as medians of their samples, exec_ms_p50/p90 over the
 * per-request execute times -- all scaled to the nominal host speed
 * by @p speed, the raw figures going to the notes -- plus
 * peak_rss_mib, and served_frac from res.attempted / res.failed (set
 * those first).
 */
void endToEnd(Result &res, const HostSpeed &speed, const Samples &setupS,
              const Samples &compileS, const Samples &execMs,
              const Samples &hostRps);

/** Every per-layer metric the spans of @p t can give, except those
 * @p res already holds; @p note names their source. */
void layerMetrics(Result &res, const Tracer &t, const std::string &note);

/**
 * Trace-mode bookkeeping shared by the workloads: the matched probes,
 * tracing overhead (wall of the @p root spans / @p untracedUs, the
 * untraced wall of the same calls), span coverage (the root spans'
 * child spans / @p untracedUs), and the span files under
 * args.traceDir.
 */
void finishTrace(const Args &args, const Tracer &t, Result &res,
                 const std::string &root, double untracedUs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
