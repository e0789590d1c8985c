#include <cstdio>
#include <filesystem>

#include "Workloads.hh"

namespace perfbench
{

namespace
{

/** A per-layer metric read off the spans of one name. */
struct SpanMetricDef
{
    const char *span;
    const char *metric;
    const char *unit;
    /** Span microseconds per metric unit. */
    double divisorUs;
};

const SpanMetricDef kSpanMetrics[] = {
    {"aim.compile", "aim.compile_ms", "ms", 1e3},
    {"aim.execute", "aim.execute_ms", "ms", 1e3},
    {"workload.synth", "workload.synth_ms", "ms", 1e3},
    {"quant.qat", "quant.qat_ms", "ms", 1e3},
    {"quant.wds", "quant.wds_ms", "ms", 1e3},
    {"workload.accuracy", "workload.accuracy_ms", "ms", 1e3},
    {"sim.tile", "sim.tile_ms", "ms", 1e3},
    {"isa.lower", "isa.lower_ms", "ms", 1e3},
    {"isa.schedule", "isa.schedule_ms", "ms", 1e3},
    {"pim.toggle", "pim.toggle_ms", "ms", 1e3},
    {"mapping.map", "mapping.map_ms", "ms", 1e3},
    {"sim.chipstate", "sim.chipstate_us", "us", 1.0},
    {"sim.env", "sim.env_us", "us", 1.0},
    {"sim.runtime", "sim.runtime_ms", "ms", 1e3},
    {"isa.engine", "isa.engine_ms", "ms", 1e3},
    {"power.droop.analytic", "power.droop_ns.analytic", "ns", 1e-3},
    {"power.droop.transient", "power.droop_ns.transient", "ns", 1e-3},
    {"power.new_eval.transient", "power.new_eval_us.transient", "us",
     1.0},
    {"power.transient_step", "power.transient_step_us", "us", 1.0},
    {"serve.exec", "serve.exec_ms", "ms", 1e3},
    {"shard.exec", "shard.exec_ms", "ms", 1e3},
    {"stream.trace_next", "stream.trace_next_ns", "ns", 1e-3},
    {"serve.annotate", "serve.annotate_us", "us", 1.0},
    {"serve.pick.d1k", "serve.pick_us.d1k", "us", 1.0},
    {"serve.pick.d16k", "serve.pick_us.d16k", "us", 1.0},
    {"serve.dispatch_cost", "serve.dispatch_cost_ns", "ns", 1e-3},
    {"stream.hist_record", "stream.hist_record_ns", "ns", 1e-3},
};

/** Per-call figure of the spans of @p d: the median span duration,
 * or -- for folded spans -- the mean per folded call. */
void
spanMetric(Result &res, const Tracer &t, const SpanMetricDef &d,
           const std::string &note)
{
    const long calls = t.calls(d.span);
    const auto dur = t.durations(d.span);
    const bool folded = calls != static_cast<long>(dur.size());
    const double per_call_us =
        folded ? t.total(d.span) / static_cast<double>(calls) : median(dur);
    res.set(d.metric, per_call_us / d.divisorUs, d.unit, calls, note);
}

} // namespace

void
endToEnd(Result &res, const HostSpeed &speed, const Samples &setup_s,
         const Samples &compile_s, const Samples &exec_ms,
         const Samples &host_rps)
{
    const long setups = static_cast<long>(setup_s.raw.size());
    const long n = static_cast<long>(exec_ms.raw.size());
    char raw[256];
    std::snprintf(raw, sizeof raw,
                  "raw (unscaled): setup_s %.6g compile_s %.6g "
                  "exec_ms_p50 %.6g exec_ms_p90 %.6g host_rps %.6g",
                  median(setup_s.raw), median(compile_s.raw),
                  median(exec_ms.raw), percentile(exec_ms.raw, 90.0),
                  median(host_rps.raw));
    res.notes.push_back(speed.describe());
    res.notes.push_back(raw);
    const auto exec = exec_ms.scaled(speed);
    res.set("setup_s", median(setup_s.scaled(speed)), "s", setups,
            "median of set-ups");
    res.set("compile_s", median(compile_s.scaled(speed)), "s", setups,
            "median cold compile of the artifact set");
    res.set("exec_ms_p50", median(exec), "ms", n,
            "host time per request execution");
    res.set("exec_ms_p90", percentile(exec, 90.0), "ms", n,
            "host time per request execution");
    res.set("host_rps", median(host_rps.scaled(speed, true)), "1/s",
            static_cast<long>(host_rps.raw.size()),
            "requests completed per host second");
    res.set("peak_rss_mib", peakRssMib(), "MiB");
    res.set("served_frac",
            res.attempted > 0
                ? static_cast<double>(res.attempted - res.failed) /
                      static_cast<double>(res.attempted)
                : 0.0,
            "fraction", res.attempted,
            "requests served and checked / attempted");
}

void
layerMetrics(Result &res, const Tracer &t, const std::string &note)
{
    for (const auto &d : kSpanMetrics)
        if (!res.has(d.metric) && t.calls(d.span) > 0)
            spanMetric(res, t, d, note);
    const auto self = t.selfDurations("sim.window_loop");
    if (!res.has("sim.window_self_ms") && !self.empty())
        res.set("sim.window_self_ms", median(self) / 1e3, "ms",
                static_cast<long>(self.size()),
                note + ", per round, droop excluded");
}

void
finishTrace(const Args &args, const Tracer &t, Result &res,
            const std::string &root, double untraced_us)
{
    Tracer matched;
    runMatchedProbes(args, matched, res);
    layerMetrics(res, matched, "matched");

    const long roots = static_cast<long>(t.durations(root).size());
    res.set("trace.overhead",
            untraced_us > 0.0 ? t.total(root) / untraced_us : 0.0,
            "ratio", roots,
            "traced / untraced wall of the " + root + " calls");
    res.set("trace.coverage",
            untraced_us > 0.0 ? t.childTotal(root) / untraced_us : 0.0,
            "ratio", roots,
            "layer spans under " + root + " / untraced wall");

    std::error_code ec;
    std::filesystem::create_directories(args.traceDir, ec);
    const std::string stem = args.traceDir + "/" + args.workload + "-" +
                             std::to_string(args.seed);
    const bool written = t.writeChrome(stem + ".json") &&
                         matched.writeChrome(stem + "-matched.json") &&
                         t.writeSummary(stem + "-layers.txt");
    res.check("trace files written under " + args.traceDir, written);
    res.notes.push_back("trace: " + stem + ".json (Chrome trace events), " +
                        stem + "-layers.txt (self time per layer)");
    for (const auto &[layer, us] : t.layerSelfUs())
        res.notes.push_back("  self " + layer + ": " +
                            std::to_string(us / 1e3) + " ms");
}

} // namespace perfbench
