#include "exec/ExecPool.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "util/Logging.hh"

namespace aim::exec
{

/** One parallelFor() call: its items and the cursor its pullers share. */
struct ExecPool::Job
{
    const std::function<void(long)> &body;
    const long n;
    std::atomic<long> cursor{0};
    std::exception_ptr error{}; ///< first item exception; guarded by mu

    /** Run items off the cursor until it passes the end. */
    void
    pull(std::mutex &mu)
    {
        for (;;) {
            const long i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                // Park the cursor past the end: no other item starts.
                cursor.store(n, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(mu);
                if (!error)
                    error = std::current_exception();
            }
        }
    }
};

ExecPool::ExecPool(int threads) : nThreads(resolveThreads(threads))
{
    // The calling thread is the job's first puller.
    workers.reserve(static_cast<size_t>(nThreads - 1));
    for (int t = 1; t < nThreads; ++t)
        workers.emplace_back([this] { workerLoop(); });
}

ExecPool::~ExecPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cvJob.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ExecPool::workerLoop()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        cvJob.wait(lock,
                   [&] { return stopping || published != seen; });
        if (stopping)
            return;
        seen = published;
        if (!job)
            continue; // the job finished before this worker woke
        Job &mine = *job;
        ++inJob;
        lock.unlock();
        mine.pull(mu);
        lock.lock();
        if (--inJob == 0)
            cvIdle.notify_one();
    }
}

void
ExecPool::parallelFor(long n, const std::function<void(long)> &body)
{
    aim_assert(n >= 0, "parallelFor needs n >= 0, got ", n);
    Job mine{body, n};
    bool forked = false;
    if (n > 1 && !workers.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        forked = !job;
        if (forked) {
            job = &mine;
            ++published;
        }
    }
    if (!forked) {
        // Serial pool, one item, or the pool is running a job this
        // call may be part of: run inline, in index order.
        for (long i = 0; i < n; ++i)
            body(i);
        return;
    }
    cvJob.notify_all();
    mine.pull(mu);
    // Every item has been claimed; the job (on this stack) stays
    // published until the workers that joined it have left.
    std::unique_lock<std::mutex> lock(mu);
    cvIdle.wait(lock, [this] { return inJob == 0; });
    job = nullptr;
    lock.unlock();
    if (mine.error)
        std::rethrow_exception(mine.error);
}

uint64_t
ExecPool::taskSeed(uint64_t seed, long index)
{
    // splitmix64 finalizer over seed ^ f(index): decorrelates small
    // consecutive indices; a pure function of (seed, index).
    uint64_t z = seed ^
                 (static_cast<uint64_t>(index) + 1) *
                     0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z != 0 ? z : 1;
}

int
ExecPool::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int
ExecPool::threadsFor(long items)
{
    return static_cast<int>(std::clamp<long>(items, 1, resolveThreads(0)));
}

namespace
{

/** strtol with a full-token and int-range check; fatal otherwise. */
int
parseThreadCount(const char *text)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    aim_assert(end != text && *end == '\0' && errno != ERANGE &&
                   v >= INT_MIN && v <= INT_MAX,
               "--threads expects an integer, got '", text, "'");
    return static_cast<int>(v);
}

} // namespace

int
ExecPool::stripThreadsFlag(int &argc, char **argv,
                           int absent_default)
{
    int threads = absent_default;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = resolveThreads(parseThreadCount(argv[++i]));
        } else if (!std::strncmp(argv[i], "--threads=", 10)) {
            threads =
                resolveThreads(parseThreadCount(argv[i] + 10));
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return threads;
}

} // namespace aim::exec
