#include "Bench.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench
{

using namespace aim;

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
Digest::mix(uint64_t bits)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffu;
        h *= 1099511628211ULL;
    }
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
}

void
Digest::add(long v)
{
    mix(static_cast<uint64_t>(v));
}

void
Digest::add(const sim::RunReport &r)
{
    add(r.wallTimeNs);
    add(r.totalMacs);
    add(r.tops);
    add(r.macroPowerMw);
    add(r.irWorstMv);
    add(r.irMeanMv);
    add(r.failures);
    add(r.stallWindows);
    add(r.usefulWindows);
    add(r.vfSwitches);
    add(r.meanLevel);
    add(r.meanRtog);
}

void
Digest::add(const stream::StreamReport &r)
{
    add(r.requests);
    add(r.admitted);
    add(r.shed);
    add(r.makespanUs);
    add(r.p50Us);
    add(r.p99Us);
    add(r.meanUs);
    add(r.totalMacs);
    add(r.irFailures);
    add(r.stallWindows);
    add(r.sloViolations);
    add(r.gangDispatches);
}

std::string
Digest::hex() const
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
Result::set(const std::string &name, double value,
            const std::string &unit, long calls, const std::string &note)
{
    for (auto &m : metrics)
        if (m.name == name) {
            m = {name, value, unit, calls, note};
            return;
        }
    metrics.push_back({name, value, unit, calls, note});
}

bool
Result::has(const std::string &name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return true;
    return false;
}

bool
Result::check(const std::string &what, bool ok)
{
    if (!ok)
        failures.push_back(what);
    return ok;
}

namespace
{

/** Reference-kernel time on a quiet 4-vCPU Xeon host [ms]: the
 * speed every run's timings are scaled to. */
constexpr double kNominalKernelMs = 3.0;

volatile double kernelSink = 0.0;

/** One run of the fixed reference kernel [ms]. */
double
kernelMs()
{
    static std::vector<float> a, b;
    static std::vector<uint32_t> next;
    if (a.empty()) {
        a.resize(1 << 15);
        b.resize(1 << 15);
        for (size_t i = 0; i < a.size(); ++i) {
            a[i] = 1.0f + static_cast<float>(i % 7);
            b[i] = 0.5f + static_cast<float>(i % 5);
        }
        // One random cycle over 1 MiB (Sattolo's shuffle) for the
        // dependent-load chase.
        next.resize(1 << 18);
        for (uint32_t i = 0; i < next.size(); ++i)
            next[i] = i;
        uint64_t s = 12345;
        for (uint32_t i = static_cast<uint32_t>(next.size()) - 1; i > 0;
             --i) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            std::swap(next[i], next[(s >> 33) % i]);
        }
    }
    const auto t0 = Clock::now();
    float acc = 0.0f;
    for (int pass = 0; pass < 16; ++pass)
        for (size_t i = 0; i < a.size(); ++i) {
            a[i] = a[i] * 0.9999f + b[i] * 1e-4f;
            acc += a[i] * b[i];
        }
    uint64_t x = 88172645463325252ULL;
    uint64_t h = 0;
    for (int i = 0; i < 200000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h += next[x & (next.size() - 1)];
    }
    uint32_t p = 0;
    for (int i = 0; i < 200000; ++i)
        p = next[p];
    kernelSink = static_cast<double>(acc) + static_cast<double>(h) + p;
    return secondsSince(t0) * 1e3;
}

} // namespace

void
HostSpeed::sample()
{
    ms.push_back(kernelMs());
    segOf.push_back(current);
}

double
HostSpeed::factor(size_t segment) const
{
    std::vector<double> in;
    for (size_t i = 0; i < ms.size(); ++i)
        if (segOf[i] == segment)
            in.push_back(ms[i]);
    const double ref = median(in.empty() ? ms : in);
    return ref > 0.0 ? kNominalKernelMs / ref : 1.0;
}

std::string
HostSpeed::describe() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "host speed: reference kernel median %.4f ms (q1 %.4f, "
                  "q3 %.4f) over %zu samples in %zu segments; nominal "
                  "%.1f ms",
                  median(ms), percentile(ms, 25.0), percentile(ms, 75.0),
                  ms.size(), current + 1, kNominalKernelMs);
    return buf;
}

std::vector<double>
Samples::scaled(const HostSpeed &speed, bool rate) const
{
    std::vector<double> out;
    for (size_t i = 0; i < raw.size(); ++i) {
        const double f = speed.factor(segment[i]);
        out.push_back(rate ? raw[i] / f : raw[i] * f);
    }
    return out;
}

bool
sameReport(const sim::RunReport &a, const sim::RunReport &b)
{
    return a.wallTimeNs == b.wallTimeNs && a.totalMacs == b.totalMacs &&
           a.tops == b.tops && a.macroPowerMw == b.macroPowerMw &&
           a.irWorstMv == b.irWorstMv && a.irMeanMv == b.irMeanMv &&
           a.failures == b.failures && a.stallWindows == b.stallWindows &&
           a.usefulWindows == b.usefulWindows &&
           a.vfSwitches == b.vfSwitches && a.meanLevel == b.meanLevel &&
           a.meanRtog == b.meanRtog &&
           a.roundLatencyNs == b.roundLatencyNs;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    return "unknown";
}

/** JSON string body: the names and units are plain ASCII. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

std::string
fingerprint(const Args &args)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "host: nproc=%u cpu=\"%s\" compiler=\"%s\" "
                  "build=%s threads=%d",
                  std::thread::hardware_concurrency(),
                  cpuModel().c_str(), PERFBENCH_COMPILER,
                  PERFBENCH_BUILD_TYPE, args.threads);
    return buf;
}

void
emit(const Args &args, const Result &res)
{
    std::printf("%s\n", fingerprint(args).c_str());
    std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0,
                args.tiny ? " tiny" : "");
    for (const auto &n : res.notes)
        std::printf("%s\n", n.c_str());
    std::printf("sim_digest: %s (simulated statistics of an "
                "unvalidated model; no error figure exists)\n",
                res.simDigest.c_str());
    std::printf("%-34s %16s %-8s %8s  %s\n", "metric", "value", "unit",
                "calls", "source");
    for (const auto &m : res.metrics)
        std::printf("%-34s %16.6g %-8s %8ld  %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.calls, m.note.c_str());
    for (const auto &f : res.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += res.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &m : res.metrics) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (!first)
            json += ", ";
        first = false;
        json += quoted(m.name) + ": {\"value\": " + num +
                ", \"unit\": " + quoted(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
