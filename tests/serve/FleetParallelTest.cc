#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "TestUtil.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

FleetConfig
fleetConfig(SchedPolicy policy, int threads)
{
    FleetConfig f;
    f.chips = 3;
    f.policy = policy;
    f.options = test::fastServeOptions();
    f.seed = 5;
    f.threads = threads;
    return f;
}

stream::StreamReport
run(SchedPolicy policy, int threads, long requests = 24)
{
    return test::serveFleet(
        fleetConfig(policy, threads),
        test::serveTrace(requests, ArrivalKind::Bursty));
}

/** @p text without its "model cache" line (the run's cache deltas). */
std::string
withoutCacheLine(const std::string &text)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line))
        if (line.find("model cache") == std::string::npos)
            out += line + "\n";
    return out;
}

/** Field-by-field bit-identity of two serve reports. */
void
expectIdentical(const stream::StreamReport &a,
                const stream::StreamReport &b)
{
    test::expectSameReport(a, b);
    // The rendered text is a function of the fields above, so it
    // must match byte for byte as well -- all but the cache line,
    // whose hit/miss deltas depend on what the shared cache held.
    EXPECT_EQ(withoutCacheLine(a.render()), withoutCacheLine(b.render()));
}

} // namespace

TEST(FleetParallel, NThreadReportIsBitIdenticalToSerial)
{
    const auto serial = run(SchedPolicy::Fcfs, 1);
    for (int threads : {2, 4, 8})
        expectIdentical(serial, run(SchedPolicy::Fcfs, threads));
}

TEST(FleetParallel, IdenticalAcrossThreadsForEveryPolicy)
{
    for (const auto policy : allPolicies()) {
        const auto serial = run(policy, 1);
        expectIdentical(serial, run(policy, 4));
    }
}

TEST(FleetParallel, HardwareDefaultThreadsMatchesSerial)
{
    // threads <= 0 resolves to the hardware concurrency.
    const auto serial = run(SchedPolicy::IrAware, 1);
    expectIdentical(serial, run(SchedPolicy::IrAware, 0));
}

TEST(FleetParallel, RepeatedParallelRunsAreStable)
{
    // Parallel runs are deterministic against themselves too (no
    // dependence on thread scheduling between repetitions).
    const auto a = run(SchedPolicy::Sjf, 4);
    const auto b = run(SchedPolicy::Sjf, 4);
    expectIdentical(a, b);
}
