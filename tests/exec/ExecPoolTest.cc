#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/ExecPool.hh"

using namespace aim::exec;

namespace
{

/** stripThreadsFlag over {"prog", args...}: (threads, args left). */
std::pair<int, std::vector<std::string>>
strip(std::vector<std::string> args, int absent_default = 1)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    int argc = static_cast<int>(argv.size());
    const int threads =
        ExecPool::stripThreadsFlag(argc, argv.data(), absent_default);
    return {threads,
            std::vector<std::string>(argv.begin() + 1,
                                     argv.begin() + argc)};
}

} // namespace

TEST(ExecPool, EmptyIterationSpaceIsANoop)
{
    ExecPool pool(4);
    long calls = 0;
    pool.parallelFor(0, [&](long) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ExecPool, SingleThreadRunsInlineAndInOrder)
{
    ExecPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<long> order;
    pool.parallelFor(8, [&](long i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (long i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i); // inline mode is strictly serial
}

TEST(ExecPool, EveryIndexRunsExactlyOnce)
{
    ExecPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(257, [&](long i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecPool, OversubscriptionIsHarmless)
{
    // Far more threads than items and than this host has cores.
    ExecPool pool(32);
    EXPECT_EQ(pool.threads(), 32);
    std::atomic<long> sum{0};
    pool.parallelFor(5, [&](long i) { sum += i; });
    EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(ExecPool, ResolveThreadsDefaultsToHardware)
{
    EXPECT_GE(ExecPool::resolveThreads(0), 1);
    EXPECT_GE(ExecPool::resolveThreads(-3), 1);
    EXPECT_EQ(ExecPool::resolveThreads(6), 6);
}

TEST(ExecPool, ParallelForPropagatesExceptions)
{
    for (int threads : {1, 4}) {
        ExecPool pool(threads);
        std::atomic<long> ran{0};
        EXPECT_THROW(
            pool.parallelFor(100,
                             [&](long i) {
                                 if (i == 13)
                                     throw std::runtime_error(
                                         "boom");
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(2));
                                 ++ran;
                             }),
            std::runtime_error)
            << threads << " threads";
        // The throw cancels the items not yet started: at 2 ms an
        // item, the other threads would need ~25 ms to run half of
        // them before the cursor is parked.
        EXPECT_LT(ran.load(), 50) << threads << " threads";
        // The pool survives the error and accepts further work.
        std::atomic<long> ok{0};
        pool.parallelFor(10, [&](long) { ++ok; });
        EXPECT_EQ(ok.load(), 10) << threads << " threads";
    }
}

TEST(ExecPool, TaskSeedsAreThreadCountInvariant)
{
    // An item's seed is a pure function of (seed, index) -- no pool
    // is involved -- so stochastic fan-outs reproduce at any thread
    // count.
    const uint64_t seed = 2029;
    std::vector<uint64_t> seeds;
    for (long i = 0; i < 64; ++i) {
        seeds.push_back(ExecPool::taskSeed(seed, i));
        EXPECT_EQ(ExecPool::taskSeed(seed, i), seeds.back());
    }
    // ... pairwise distinct and never the Rng-degenerate 0.
    std::set<uint64_t> uniq(seeds.begin(), seeds.end());
    EXPECT_EQ(uniq.size(), seeds.size());
    EXPECT_FALSE(uniq.count(0));
}

TEST(ExecPool, NestedParallelForRunsInlineOnItsWorkers)
{
    // Every outer item fans out again on the same pool.  The inner
    // call runs inline on the thread running the outer item instead
    // of waiting on the job that item belongs to.
    const auto f = [](long i, long j) { return i * 1000 + j * j; };
    std::vector<long> serial(8 * 16), nested(8 * 16);
    for (long i = 0; i < 8; ++i)
        for (long j = 0; j < 16; ++j)
            serial[i * 16 + j] = f(i, j);
    ExecPool pool(4);
    pool.parallelFor(8, [&](long i) {
        pool.parallelFor(16, [&](long j) { nested[i * 16 + j] = f(i, j); });
    });
    EXPECT_EQ(nested, serial);
}

TEST(ExecPool, BackToBackJobsRunEveryIndexOnce)
{
    // Thousands of short jobs on one pool: a worker that wakes late
    // for one job must neither miss the next nor run an index of a
    // finished one.  The yield gives the workers time to join most
    // jobs instead of watching the caller finish them alone.
    ExecPool pool(4);
    std::vector<std::atomic<int>> hits(8);
    for (int job = 0; job < 3000; ++job) {
        const long n = job % 9;
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(n, [&](long i) {
            std::this_thread::yield();
            ++hits[i];
        });
        for (long i = 0; i < 8; ++i)
            ASSERT_EQ(hits[i].load(), i < n ? 1 : 0)
                << "job " << job << " index " << i;
    }
}

TEST(ExecPool, NestedCallFromTheCallersOwnItemRunsInline)
{
    // The calling thread pulls items of its own job; a parallelFor it
    // issues from one of them runs inline, in index order.  Items on
    // workers hold until the caller has run one, and the 3 workers
    // can hold at most 3 of the 8 items, so the caller pulls one.
    ExecPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> caller_ran{false};
    std::vector<std::vector<long>> inner(8);
    pool.parallelFor(8, [&](long i) {
        const bool on_caller = std::this_thread::get_id() == caller;
        while (!on_caller && !caller_ran)
            std::this_thread::yield();
        pool.parallelFor(16, [&](long j) { inner[i].push_back(j); });
        if (on_caller)
            caller_ran = true;
    });
    EXPECT_TRUE(caller_ran.load());
    std::vector<long> in_order(16);
    for (long j = 0; j < 16; ++j)
        in_order[j] = j;
    for (long i = 0; i < 8; ++i)
        EXPECT_EQ(inner[i], in_order) << "outer item " << i;
}

TEST(ExecPool, WorkerDrivesSecondPoolThatCallsBackIntoTheFirst)
{
    // Items of pool a fan out on pool b, whose items fan out on a
    // again while a still runs the outer job.  The calls into the
    // busy pool run inline, so nothing waits on itself.  Items on the
    // caller hold until a worker of a has driven b, so a worker is
    // sure to drive it.
    ExecPool a(4), b(3);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> worker_drove{false};
    std::vector<std::atomic<int>> hits(8 * 6 * 5);
    a.parallelFor(8, [&](long i) {
        const bool on_caller = std::this_thread::get_id() == caller;
        while (on_caller && !worker_drove)
            std::this_thread::yield();
        b.parallelFor(6, [&](long j) {
            a.parallelFor(5,
                          [&](long k) { ++hits[(i * 6 + j) * 5 + k]; });
        });
        if (!on_caller)
            worker_drove = true;
    });
    EXPECT_TRUE(worker_drove.load());
    for (size_t c = 0; c < hits.size(); ++c)
        EXPECT_EQ(hits[c].load(), 1) << "cell " << c;
}

TEST(ExecPool, StripThreadsFlagParsesAndCompactsArgv)
{
    // --threads N between positional arguments.
    auto [threads, rest] = strip({"24", "--threads", "3", "poisson"});
    EXPECT_EQ(threads, 3);
    EXPECT_EQ(rest, (std::vector<std::string>{"24", "poisson"}));
    // --threads=N.
    std::tie(threads, rest) = strip({"--threads=5", "bursty"});
    EXPECT_EQ(threads, 5);
    EXPECT_EQ(rest, std::vector<std::string>{"bursty"});
    // Absent: the caller's default, argv untouched.
    std::tie(threads, rest) = strip({"24", "6000"}, 8);
    EXPECT_EQ(threads, 8);
    EXPECT_EQ(rest, (std::vector<std::string>{"24", "6000"}));
    // 0 and negative mean the hardware concurrency.
    EXPECT_EQ(strip({"--threads", "0"}).first,
              ExecPool::resolveThreads(0));
    EXPECT_EQ(strip({"--threads=-2"}).first,
              ExecPool::resolveThreads(0));
}

TEST(ExecPool, StripThreadsFlagRejectsJunkAndOutOfRangeCounts)
{
    // Parsing only: no pool is ever built from these values.
    for (const char *bad : {"4x", "", "9999999999", "4294967297",
                            "-4294967297", "99999999999999999999"}) {
        EXPECT_DEATH(strip({"--threads", bad}),
                     "--threads expects an integer")
            << "'" << bad << "'";
        EXPECT_DEATH(strip({std::string("--threads=") + bad}),
                     "--threads expects an integer")
            << "'" << bad << "'";
    }
}
