#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "exec/ExecPool.hh"
#include "exec/SweepDriver.hh"

using namespace aim::exec;

TEST(ExecPool, EmptyIterationSpaceIsANoop)
{
    ExecPool pool(4);
    long calls = 0;
    pool.parallelFor(0, [&](long) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.drain(); // nothing pending either
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
    // Far more workers than items and than this host has cores.
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
        EXPECT_THROW(
            pool.parallelFor(100,
                             [&](long i) {
                                 if (i == 13)
                                     throw std::runtime_error(
                                         "boom");
                             }),
            std::runtime_error)
            << threads << " threads";
        // The pool survives the error and accepts further work.
        std::atomic<long> ok{0};
        pool.parallelFor(10, [&](long) { ++ok; });
        EXPECT_EQ(ok.load(), 10) << threads << " threads";
    }
}

TEST(ExecPool, PostAndDrainRunEverything)
{
    ExecPool pool(3, /*queueBound=*/2); // force post() to block
    std::atomic<long> done{0};
    for (int i = 0; i < 50; ++i)
        pool.post([&] { ++done; });
    pool.drain();
    EXPECT_EQ(done.load(), 50);
}

TEST(ExecPool, PostedExceptionSurfacesAtDrain)
{
    ExecPool pool(2);
    pool.post([] { throw std::logic_error("posted"); });
    EXPECT_THROW(pool.drain(), std::logic_error);
    pool.drain(); // error is consumed; pool is clean again
}

TEST(ExecPool, TaskSeedsAreThreadCountInvariant)
{
    // The seed handed to an item depends only on (seed, index), so
    // stochastic sweeps reproduce at any worker count.
    const uint64_t seed = 2029;
    std::vector<uint64_t> serial(64), parallel(64);
    ExecPool one(1);
    one.parallelFor(64, seed, [&](const TaskContext &ctx) {
        serial[ctx.index] = ctx.seed;
    });
    ExecPool many(8);
    many.parallelFor(64, seed, [&](const TaskContext &ctx) {
        parallel[ctx.index] = ctx.seed;
    });
    EXPECT_EQ(serial, parallel);
    // ... and are pairwise distinct and never the Rng-degenerate 0.
    std::set<uint64_t> uniq(serial.begin(), serial.end());
    EXPECT_EQ(uniq.size(), serial.size());
    EXPECT_FALSE(uniq.count(0));
}

TEST(ExecPool, NestedParallelForRunsInlineOnItsWorkers)
{
    // Every outer item fans out again on the same pool.  The inner
    // call runs inline on the worker instead of waiting on a pool
    // whose in-flight count includes its own caller.
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

TEST(SweepDriver, ResultsComeBackInPointOrder)
{
    ExecPool pool(4);
    SweepDriver sweep(pool);
    const auto out = sweep.run<long>(100, [](long i) {
        return i * i;
    });
    ASSERT_EQ(out.size(), 100u);
    for (long i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepDriver, SeededPointsMatchSerialReference)
{
    ExecPool serial_pool(1), parallel_pool(6);
    SweepDriver serial(serial_pool), parallel(parallel_pool);
    const auto f = [](const TaskContext &ctx) {
        return static_cast<double>(ctx.seed % 1000) + ctx.index;
    };
    const auto a = serial.run<double>(40, 7, f);
    const auto b = parallel.run<double>(40, 7, f);
    EXPECT_EQ(a, b);
}
