/**
 * @file
 * Command-line explorer for the AIM stack: run any zoo model under
 * any configuration without writing code.
 *
 *   aim_cli [model] [options]
 *
 *   model                ResNet18|MobileNetV2|YOLOv5|ViT|Llama3|GPT2
 *   --mode sprint|lowpower|dvfs    operating mode (default sprint)
 *   --no-lhr / --no-wds            disable software passes
 *   --delta N                      WDS shift (8 or 16)
 *   --beta N                       Algorithm-2 beta (default 50)
 *   --mapper seq|zigzag|random|hr  task mapping (default hr)
 *   --work F                       fraction of inference simulated
 *   --seed N                       master seed
 *   --ir-backend analytic|mesh|transient
 *                                  droop model (default analytic)
 *   --decap F                      transient per-node decap [nF]
 *   --dt F                         transient window step [ns]
 *                                  (0 = derive from group frequency)
 *   --isa                          execute through the instruction-
 *                                  level ISA engine (bit-identical
 *                                  report + instruction accounting)
 *   --isa-schedule                 cost-modelled list scheduling on
 *                                  the ISA path (implies --isa):
 *                                  loads/retunes charged per Set and
 *                                  software-pipelined across rounds
 *   --trace FILE                   write the ISA issue/complete
 *                                  trace as CSV (requires --isa)
 *
 * Numeric values must be whole tokens ("5x" or "abc" is not a
 * number): a malformed one prints the usage and exits 2.
 *
 * Example:
 *   ./build/examples/aim_cli ViT --mode lowpower --beta 30
 *   ./build/examples/aim_cli GPT2 --ir-backend transient --dt 1.5
 *   ./build/examples/aim_cli ResNet18 --isa --trace trace.csv
 *   ./build/examples/aim_cli ResNet18 --isa-schedule
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "aim/Aim.hh"
#include "isa/Isa.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: aim_cli [model] [--mode sprint|lowpower|dvfs] "
        "[--no-lhr] [--no-wds] [--delta N] [--beta N] "
        "[--mapper seq|zigzag|random|hr] [--work F] [--seed N] "
        "[--ir-backend analytic|mesh|transient] [--decap F] "
        "[--dt F] [--isa] [--isa-schedule] [--trace FILE]\n");
    std::exit(2);
}

/** @p text as a whole base-10 integer of @p flag, else usage(). */
long long
parseInteger(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "aim_cli: %s expects an integer, got '%s'\n",
                     flag, text);
        usage();
    }
    return v;
}

/** parseInteger narrowed to int (out-of-range values are junk too). */
int
parseInt(const char *flag, const char *text)
{
    const long long v = parseInteger(flag, text);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "aim_cli: %s is out of range: '%s'\n", flag,
                     text);
        usage();
    }
    return static_cast<int>(v);
}

/** @p text as a whole floating-point number of @p flag, else usage(). */
double
parseReal(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "aim_cli: %s expects a number, got '%s'\n",
                     flag, text);
        usage();
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace aim;

    std::string model_name = "ResNet18";
    AimOptions opts;
    opts.workScale = 0.1;
    bool dvfs = false;
    std::string trace_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--mode") {
            const std::string m = next();
            if (m == "sprint")
                opts.mode = booster::BoostMode::Sprint;
            else if (m == "lowpower")
                opts.mode = booster::BoostMode::LowPower;
            else if (m == "dvfs")
                dvfs = true;
            else
                usage();
        } else if (arg == "--no-lhr") {
            opts.useLhr = false;
        } else if (arg == "--no-wds") {
            opts.useWds = false;
        } else if (arg == "--delta") {
            opts.wdsDelta = parseInt("--delta", next());
        } else if (arg == "--beta") {
            opts.beta = parseInt("--beta", next());
        } else if (arg == "--mapper") {
            const std::string m = next();
            if (m == "seq")
                opts.mapper = mapping::MapperKind::Sequential;
            else if (m == "zigzag")
                opts.mapper = mapping::MapperKind::Zigzag;
            else if (m == "random")
                opts.mapper = mapping::MapperKind::Random;
            else if (m == "hr")
                opts.mapper = mapping::MapperKind::HrAware;
            else
                usage();
        } else if (arg == "--work") {
            opts.workScale = parseReal("--work", next());
        } else if (arg == "--seed") {
            opts.seed =
                static_cast<uint64_t>(parseInteger("--seed", next()));
        } else if (arg == "--ir-backend") {
            if (!power::irBackendFromName(next(), opts.irBackend))
                usage();
        } else if (arg == "--decap") {
            opts.transientDecapNf = parseReal("--decap", next());
        } else if (arg == "--dt") {
            opts.transientDtNs = parseReal("--dt", next());
        } else if (arg == "--isa") {
            opts.useIsa = true;
        } else if (arg == "--isa-schedule") {
            opts.useIsa = true;
            opts.isaSchedule = true;
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg.rfind("--", 0) == 0) {
            usage();
        } else {
            model_name = arg;
        }
    }
    if (dvfs) {
        const double work = opts.workScale;
        const uint64_t seed = opts.seed;
        const bool isa = opts.useIsa;
        const bool isa_sched = opts.isaSchedule;
        opts = AimOptions::dvfsBaseline();
        opts.workScale = work;
        opts.seed = seed;
        opts.useIsa = isa;
        opts.isaSchedule = isa_sched;
    }
    if (!trace_path.empty() && !opts.useIsa) {
        std::fprintf(stderr,
                     "aim_cli: --trace requires --isa (the trace is "
                     "the ISA engine's issue/complete stream)\n");
        usage();
    }

    const auto model = workload::modelByName(model_name);
    pim::PimConfig chip;
    AimPipeline pipeline(chip, power::defaultCalibration());
    AimReport rep;
    std::shared_ptr<const isa::Program> program;
    if (opts.useIsa) {
        const CompiledModel compiled = pipeline.compile(model, opts);
        program = compiled.program;
        if (!trace_path.empty()) {
            std::ofstream file(trace_path);
            if (!file) {
                std::fprintf(stderr,
                             "aim_cli: cannot open trace file %s\n",
                             trace_path.c_str());
                return 2;
            }
            isa::CsvTrace trace(file);
            rep = pipeline.execute(compiled, 0, &trace);
        } else {
            rep = pipeline.execute(compiled);
        }
    } else {
        rep = pipeline.run(model, opts);
    }

    std::printf("model          %s\n", model.name.c_str());
    std::printf("config         lhr=%d wds(%d)=%d booster=%d beta=%d "
                "mapper=%s mode=%s droop=%s\n",
                opts.useLhr, opts.wdsDelta, opts.useWds,
                opts.useBooster, opts.beta,
                mapping::mapperName(opts.mapper),
                !opts.useBooster ? "dvfs"
                : opts.mode == booster::BoostMode::Sprint
                    ? "sprint"
                    : "lowpower",
                power::irBackendName(opts.irBackend));
    std::printf("HR             %.3f (baseline %.3f, max %.3f)\n",
                rep.hrAverage, rep.baselineHrAverage, rep.hrMax);
    std::printf("IR-drop        mean %.1f mV, worst %.1f mV "
                "(%.1f%% below signoff)\n",
                rep.run.irMeanMv, rep.run.irWorstMv,
                100.0 * rep.irMitigationVsSignoff);
    std::printf("power          %.3f mW/macro (%.2fx vs 4.2978 "
                "baseline)\n",
                rep.run.macroPowerMw, rep.efficiencyGain);
    std::printf("throughput     %.1f TOPS at %.1f%% utilization\n",
                rep.run.tops, 100.0 * rep.run.utilization());
    std::printf("runtime        %ld IRFailures, %ld V-f switches, "
                "mean level %.0f%%\n",
                rep.run.failures, rep.run.vfSwitches,
                rep.run.meanLevel);
    std::printf("%s       %.3f (baseline %.3f)\n",
                rep.accuracy.isPerplexity ? "perplexity"
                                          : "accuracy  ",
                rep.accuracy.metric, model.baselineMetric);
    if (program) {
        std::printf("isa program    %ld instructions (%ld fused "
                    "MAC+SHIFT pairs, tail idle %.1f ns)\n",
                    static_cast<long>(program->code.size()),
                    program->fusedMacs, rep.isaTailIdleNs);
        if (opts.isaSchedule)
            std::printf("isa schedule   pipelined %ld slots "
                        "(in-order %.1f us, scheduled %.1f us, "
                        "saved %.1f us)\n",
                        static_cast<long>(program->code.size()),
                        rep.isaInOrderMakespanNs / 1000.0,
                        rep.isaScheduledMakespanNs / 1000.0,
                        rep.isaScheduleSavedNs / 1000.0);
        std::printf("%s", program->renderCounts().c_str());
    }
    return 0;
}
