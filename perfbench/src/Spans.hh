/**
 * @file
 * In-memory span recorder of the traced replay.  The benchmark wraps
 * each call it makes into a layer of the library in a span (name =
 * "<layer>.<call>", start, end, parent span, request id); nothing
 * inside the library is instrumented.  Spans stay in memory and are
 * written at exit as Chrome trace-event JSON plus a per-layer
 * self-time summary.
 *
 * Calls too frequent for one span each (the droop evaluation of every
 * window) are folded into one aggregate child span carrying their
 * summed duration and call count.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <string>
#include <vector>

#include "Bench.hh"

namespace perfbench
{

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
        long request = -1;
        /** Calls folded into this span (1 for an ordinary span). */
        long calls = 1;
    };

    Tracer();

    /** Open a span under the innermost open one; returns its id. */
    int begin(const std::string &name, long request = -1);
    /** Close span @p id (must be the innermost open span). */
    void end(int id);
    /** Record @p calls folded calls of @p totalUs under the innermost
     * open span, laid out from that span's start. */
    void aggregate(const std::string &name, double totalUs, long calls,
                   long request = -1);

    const std::vector<Span> &spans() const { return all; }

    /** Durations [us] of the spans named @p name, one per span. */
    std::vector<double> durations(const std::string &name) const;
    /** Self times [us] of the spans named @p name (duration minus
     * their child spans), one per span. */
    std::vector<double> selfDurations(const std::string &name) const;
    /** Summed duration [us] of the child spans of spans named
     * @p name. */
    double childTotal(const std::string &name) const;
    /** Folded calls summed over the spans named @p name. */
    long calls(const std::string &name) const;
    /** Summed duration [us] of the spans named @p name. */
    double total(const std::string &name) const;
    /** Summed duration of root spans [us]. */
    double rootTotal() const;

    /** Self time [us] per layer (name prefix before the first '.'). */
    std::vector<std::pair<std::string, double>> layerSelfUs() const;

    /** Write Chrome trace-event JSON; false on an I/O error. */
    bool writeChrome(const std::string &path) const;
    /** Write the per-layer self-time table; false on an I/O error. */
    bool writeSummary(const std::string &path) const;

  private:
    double nowUs() const;

    Clock::time_point t0;
    std::vector<Span> all;
    std::vector<int> open;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const std::string &name, long request = -1)
        : tracer(t), id(t.begin(name, request))
    {
    }
    ~SpanScope() { tracer.end(id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer;
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
