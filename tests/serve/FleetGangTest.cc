#include <gtest/gtest.h>

#include "TestUtil.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

/** A 4-chip fleet where ResNet18 is gang-dispatched over 2 chips. */
FleetConfig
gangConfig(SchedPolicy policy, int threads)
{
    FleetConfig f;
    f.chips = 4;
    f.policy = policy;
    f.options = test::fastServeOptions();
    f.seed = 5;
    f.threads = threads;
    GangSpec gang;
    gang.model = "ResNet18";
    gang.partition.chips = 2;
    gang.microBatches = 2;
    f.gangs = {gang};
    return f;
}

std::vector<Request>
trace(long requests = 16)
{
    return test::serveTrace(requests, ArrivalKind::Bursty);
}

stream::StreamReport
run(SchedPolicy policy, int threads)
{
    return test::serveFleet(gangConfig(policy, threads), trace());
}

} // namespace

TEST(FleetGang, ShardedModelDispatchesToChipGroups)
{
    const auto rep = run(SchedPolicy::Fcfs, 1);
    EXPECT_EQ(rep.requests, 16);
    // Every ResNet18 request went to a 2-chip gang.
    long resnet = 0;
    for (const auto &r : trace())
        resnet += r.model == "ResNet18";
    EXPECT_GT(resnet, 0);
    EXPECT_EQ(rep.gangDispatches, resnet);
    // Gang members each count the request: total served exceeds the
    // request count by one per gang dispatch (2-chip gangs).
    long served = 0;
    for (const auto &c : rep.chips)
        served += c.served;
    EXPECT_EQ(served, rep.requests + rep.gangDispatches);
    // Every request completed with a positive latency.
    for (double l : rep.latencyUs)
        EXPECT_GT(l, 0.0);
    EXPECT_GT(rep.totalMacs, 0.0);
    // The render mentions the gang dispatches.
    EXPECT_NE(rep.render().find("gang dispatches"),
              std::string::npos);
}

TEST(FleetGang, ReportIsBitIdenticalAcrossThreads)
{
    const auto serial = run(SchedPolicy::Fcfs, 1);
    for (int threads : {2, 4})
        test::expectSameReport(serial,
                               run(SchedPolicy::Fcfs, threads));
}

TEST(FleetGang, IdenticalAcrossThreadsForEveryPolicy)
{
    for (const auto policy : allPolicies()) {
        const auto serial = run(policy, 1);
        test::expectSameReport(serial, run(policy, 4));
    }
}

TEST(FleetGang, GangFillsWholeFleet)
{
    // A gang spanning every chip serializes gang requests but must
    // still complete and keep the plain model interleaved.
    auto fcfg = gangConfig(SchedPolicy::Fcfs, 1);
    fcfg.gangs[0].partition.chips = 4;
    const auto rep = test::serveFleet(fcfg, trace(8));
    EXPECT_EQ(rep.requests, 8);
    EXPECT_GT(rep.gangDispatches, 0);
    for (double l : rep.latencyUs)
        EXPECT_GT(l, 0.0);
}
