#include "stream/StreamReport.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/Table.hh"

namespace aim::stream
{

void
LatencyHistogram::record(double latency_us)
{
    ++total;
    sumUs += latency_us;
    int b = 0;
    if (latency_us > minUs)
        b = static_cast<int>(
            std::floor(std::log2(latency_us / minUs) * 8.0));
    b = std::clamp(b, 0, bucketCount - 1);
    ++buckets[static_cast<size_t>(b)];
}

double
LatencyHistogram::percentile(double p) const
{
    if (total == 0)
        return 0.0;
    const double target = p / 100.0 * static_cast<double>(total - 1);
    long seen = 0;
    for (int b = 0; b < bucketCount; ++b) {
        seen += buckets[static_cast<size_t>(b)];
        if (static_cast<double>(seen) > target) {
            // Geometric bucket midpoint: sqrt(lo * hi) of the
            // bucket's bounds.
            const double lo = minUs * std::exp2(b / 8.0);
            return lo * std::exp2(1.0 / 16.0);
        }
    }
    return minUs * std::exp2(bucketCount / 8.0);
}

double
StreamReport::shedRate() const
{
    return arrivals > 0 ? static_cast<double>(shed) / arrivals : 0.0;
}

double
StreamReport::throughputRps() const
{
    return makespanUs > 0.0 ? requests / (makespanUs / 1e6) : 0.0;
}

double
StreamReport::aggregateTops() const
{
    if (makespanUs <= 0.0)
        return 0.0;
    // ops/s = 2 * macs / (makespanUs / 1e6); TOPS divides by 1e12.
    return 2.0 * totalMacs / makespanUs / 1e6;
}

long
StreamReport::totalModelSwitches() const
{
    long switches = 0;
    for (const auto &c : chips)
        switches += c.modelSwitches;
    return switches;
}

std::string
StreamReport::render() const
{
    std::ostringstream os;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "stream policy %s [%s droop]: %ld arrivals, %ld "
                  "admitted, %ld shed (%.1f%%), %ld completed in "
                  "%.2f ms (%.0f req/s)\n",
                  serve::policyName(policy),
                  power::irBackendName(backend), arrivals, admitted,
                  shed, 100.0 * shedRate(), requests,
                  makespanUs / 1e3, throughputRps());
    os << line;
    std::snprintf(line, sizeof(line),
                  "latency  p50 %.1f us  p95 %.1f us  p99 %.1f us  "
                  "mean %.1f us\n",
                  p50Us, p95Us, p99Us, meanUs);
    os << line;
    std::snprintf(line, sizeof(line),
                  "SLO violations %ld/%ld  model switches %ld  "
                  "effective TOPS %.1f  IRFailures %ld  stall "
                  "windows %ld\n",
                  sloViolations, requests, totalModelSwitches(),
                  aggregateTops(), irFailures, stallWindows);
    os << line;
    std::snprintf(line, sizeof(line),
                  "control  scale-ups %ld  scale-downs %ld  gang "
                  "dispatches %ld  batched requests %ld\n",
                  scaleUps, scaleDowns, gangDispatches,
                  batchedRequests);
    os << line;
    std::snprintf(line, sizeof(line),
                  "model cache  hits %ld  misses %ld  evictions "
                  "%ld\n",
                  cacheHits, cacheMisses, cacheEvictions);
    os << line;
    if (isa) {
        std::snprintf(line, sizeof(line),
                      "isa engine: reload overlap saved %.1f us "
                      "across model switches\n",
                      reloadOverlapSavedUs);
        os << line;
        if (scheduleSavedUs > 0.0) {
            std::snprintf(line, sizeof(line),
                          "isa scheduler: %.1f us makespan saved "
                          "vs in-order issue\n",
                          scheduleSavedUs);
            os << line;
        }
    }

    util::Table t("per-chip usage");
    t.setHeader({"chip", "served", "busy %", "reload %", "retune %",
                 "switches"});
    for (size_t c = 0; c < chips.size(); ++c) {
        const auto &u = chips[c];
        t.addRow({std::to_string(c), std::to_string(u.served),
                  util::Table::pct(u.utilization(makespanUs)),
                  util::Table::pct(makespanUs > 0.0
                                       ? u.reloadUs / makespanUs
                                       : 0.0),
                  util::Table::pct(makespanUs > 0.0
                                       ? u.retuneUs / makespanUs
                                       : 0.0),
                  std::to_string(u.modelSwitches)});
    }
    os << t.render();
    return os.str();
}

} // namespace aim::stream
