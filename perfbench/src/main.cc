/**
 * @file
 * The benchmark binary.
 *
 *   perfbench --workload <cli_flow|exact_hetero|overload_dispatch>
 *             --seed N --seconds S --trace <0|1> [--tiny]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of the traced replay (span files under
 * .bench_build/traces); --tiny shrinks every size for the self-test.
 * Both modes print the host fingerprint, the
 * workload's sim_digest and, as the last line, one JSON object
 * {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
 * when every output check passed, 1 when one failed and 2 on a usage
 * error (no JSON then).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "Workloads.hh"

namespace
{

using namespace perfbench;

/** Mirrors "end_to_end" in BENCHMARK.json. */
const char *const kEndToEnd[] = {
    "setup_s",     "compile_s",    "exec_ms_p50", "exec_ms_p90",
    "host_rps",    "peak_rss_mib", "served_frac",
};

/** Mirrors "per_layer" in BENCHMARK.json. */
const char *const kPerLayer[] = {
    "aim.compile_ms",
    "aim.execute_ms",
    "workload.synth_ms",
    "quant.qat_ms",
    "quant.wds_ms",
    "workload.accuracy_ms",
    "sim.tile_ms",
    "isa.lower_ms",
    "isa.schedule_ms",
    "pim.toggle_ms",
    "mapping.map_ms",
    "sim.chipstate_us",
    "sim.window_self_ms",
    "sim.windows",
    "sim.env_us",
    "sim.runtime_ms",
    "isa.engine_ms",
    "power.droop_ns.analytic",
    "power.droop_ns.transient",
    "power.new_eval_us.transient",
    "power.transient_step_us",
    "sim.kwin_per_s.analytic",
    "sim.kwin_per_s.mesh",
    "sim.kwin_per_s.transient",
    "serve.exec_ms",
    "shard.exec_ms",
    "serve.cache_hit_ratio",
    "exec.speedup_2t",
    "stream.trace_next_ns",
    "serve.annotate_us",
    "serve.pick_us.d1k",
    "serve.pick_us.d16k",
    "serve.dispatch_cost_ns",
    "stream.hist_record_ns",
    "stream.cost_growth",
    "trace.overhead",
    "trace.coverage",
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<cli_flow|exact_hetero|overload_dispatch> --seed N "
                 "--seconds S --trace <0|1> [--tiny]\n",
                 why);
    return 2;
}

/** Keep exactly the declared metrics of the mode, in declared order;
 * a missing one fails the run. */
template <size_t N>
void
select(Result &res, const char *const (&names)[N])
{
    std::vector<Metric> kept;
    for (const char *name : names) {
        bool found = false;
        for (const auto &m : res.metrics)
            if (m.name == name) {
                kept.push_back(m);
                found = true;
            }
        if (!res.check(std::string("metric ") + name + " measured",
                       found))
            kept.push_back({name, 0.0, "-", 0, "missing"});
    }
    res.metrics = std::move(kept);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            args.tiny = true;
        } else if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            args.workload = argv[++i];
            have_workload = true;
        } else if (a == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (!(args.seconds > 0.0))
        return usage("--seconds must be positive");

    Result res;
    try {
        if (args.workload == "cli_flow")
            res = runCliFlow(args);
        else if (args.workload == "exact_hetero")
            res = runExactHetero(args);
        else if (args.workload == "overload_dispatch")
            res = runOverloadDispatch(args);
        else
            return usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (args.trace)
        select(res, kPerLayer);
    else
        select(res, kEndToEnd);
    emit(args, res);
    return res.correct() ? 0 : 1;
}
