/**
 * @file
 * Shared plumbing of the benchmark binary: arguments, the result
 * record every workload fills (metrics with units, checks, request
 * counts, the simulated-statistics digest), host timing helpers and
 * the host/compiler fingerprint.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/Runtime.hh"
#include "stream/StreamReport.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated percentile of @p v, p in [0, 100]. */
double percentile(std::vector<double> v, double p);

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed phase [s]. */
    double seconds = 10.0;
    /** false: end-to-end metrics; true: traced per-layer replay. */
    bool trace = false;
    /** Shrink every size to a smoke-test scale (self-test). */
    bool tiny = false;
    /** Host worker threads of the serving workloads. */
    static constexpr int threads = 2;
    /** Where the traced run writes its span files. */
    inline static const std::string traceDir = ".bench_build/traces";
};

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Calls the figure is a per-call statistic of (0: not per-call). */
    long calls = 0;
    /** Where the figure comes from (printed, not in the JSON). */
    std::string note;
};

/** FNV-1a over the exact bit patterns of simulated statistics. */
class Digest
{
  public:
    void add(double v);
    void add(long v);
    void add(const aim::sim::RunReport &r);
    void add(const aim::stream::StreamReport &r);
    std::string hex() const;

  private:
    void mix(uint64_t bits);
    uint64_t h = 1469598103934665603ULL;
};

/** Everything one workload run reports. */
struct Result
{
    std::vector<Metric> metrics;
    /** Requests attempted in the measured phase. */
    long attempted = 0;
    /** Of those: shed, not completed, or failing a check. */
    long failed = 0;
    /** Failed output checks, by description. */
    std::vector<std::string> failures;
    /** Digest of the run's fixed, seed-determined simulated work. */
    std::string simDigest;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit, long calls = 0,
             const std::string &note = "");
    bool has(const std::string &name) const;
    /** Record an output check; false marks the run incorrect. */
    bool check(const std::string &what, bool ok);
    bool correct() const { return failures.empty(); }
};

/**
 * Host-speed reference of a run.  The benchmark's host is shared: for
 * seconds to minutes at a time the same code runs up to ~40% slower,
 * which per-run medians cannot remove.  sample() times a fixed mixed
 * kernel (float streams, integer hashing, dependent loads) that no
 * change to the library can move.  A run is cut into segments of a
 * few seconds (nextSegment()); every timing taken in a segment is
 * reported at the nominal host speed, scaled by factor(segment) =
 * nominal kernel time / the segment's median kernel time.  The raw
 * figures are printed too.
 */
class HostSpeed
{
  public:
    void sample();
    void nextSegment() { ++current; }
    size_t segment() const { return current; }
    /** Multiply times taken in @p segment by this (divide rates);
     * a segment without samples uses the whole run's median. */
    double factor(size_t segment) const;
    std::string describe() const;

  private:
    std::vector<double> ms;
    std::vector<size_t> segOf;
    size_t current = 0;
};

/** Timings tagged with the HostSpeed segment they were taken in. */
struct Samples
{
    std::vector<double> raw;
    std::vector<size_t> segment;

    void add(double v, const HostSpeed &speed)
    {
        raw.push_back(v);
        segment.push_back(speed.segment());
    }
    /** The timings at nominal host speed (@p rate: divide instead). */
    std::vector<double> scaled(const HostSpeed &speed,
                               bool rate = false) const;
};

/** Bitwise equality of two chip reports. */
bool sameReport(const aim::sim::RunReport &a,
                const aim::sim::RunReport &b);

/** Peak resident set of this process [MiB]. */
double peakRssMib();

/** nproc, CPU model, compiler, build type and thread count. */
std::string fingerprint(const Args &args);

/** Print the notes, the metric table and the one-line JSON result. */
void emit(const Args &args, const Result &res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
