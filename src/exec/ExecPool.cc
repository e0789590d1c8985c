#include "exec/ExecPool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "util/Logging.hh"

namespace aim::exec
{

namespace
{

/** The pool the calling thread works for (nullptr off-pool). */
thread_local const ExecPool *workerOf = nullptr;

} // namespace

ExecPool::ExecPool(int threads, int queue_bound)
    : nThreads(resolveThreads(threads)),
      bound(static_cast<size_t>(queue_bound))
{
    aim_assert(queue_bound >= 1, "queue bound must be >= 1, got ",
               queue_bound);
    if (nThreads == 1)
        return; // inline mode: nothing to spawn
    workers.reserve(static_cast<size_t>(nThreads));
    for (int t = 0; t < nThreads; ++t)
        workers.emplace_back([this] { workerLoop(); });
}

ExecPool::~ExecPool()
{
    if (workers.empty())
        return;
    {
        std::unique_lock<std::mutex> lock(mu);
        cvIdle.wait(lock, [this] { return inFlight == 0; });
        stopping = true;
    }
    cvWork.notify_all();
    for (auto &w : workers)
        w.join();
}

bool
ExecPool::onWorker() const
{
    return workerOf == this;
}

void
ExecPool::workerLoop()
{
    workerOf = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            cvWork.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        cvSpace.notify_one();
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (!firstError)
                firstError = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            --inFlight;
        }
        cvIdle.notify_all();
    }
}

void
ExecPool::post(std::function<void()> task)
{
    if (workers.empty()) {
        // Inline mode: run now, defer any exception to drain() so
        // 1-thread and N-thread error behaviour match.
        try {
            task();
        } catch (...) {
            if (!firstError)
                firstError = std::current_exception();
        }
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mu);
        cvSpace.wait(lock,
                     [this] { return queue.size() < bound; });
        queue.push_back(std::move(task));
        ++inFlight;
    }
    cvWork.notify_one();
}

void
ExecPool::drain()
{
    aim_assert(!onWorker(), "drain() from inside a task of the same "
                            "pool waits on itself");
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mu);
        cvIdle.wait(lock, [this] { return inFlight == 0; });
        err = firstError;
        firstError = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ExecPool::parallelFor(long n, const std::function<void(long)> &body)
{
    aim_assert(n >= 0, "parallelFor needs n >= 0, got ", n);
    if (n == 0)
        return;
    if (workers.empty() || onWorker()) {
        for (long i = 0; i < n; ++i)
            body(i);
        return;
    }
    // One pulling task per worker; items come off a shared cursor so
    // uneven item costs balance dynamically.  An exception parks the
    // cursor past the end, cancelling the not-yet-started items.
    auto cursor = std::make_shared<std::atomic<long>>(0);
    const int pullers =
        static_cast<int>(std::min<long>(nThreads, n));
    for (int t = 0; t < pullers; ++t)
        post([cursor, n, &body] {
            for (;;) {
                const long i =
                    cursor->fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    body(i);
                } catch (...) {
                    cursor->store(n, std::memory_order_relaxed);
                    throw;
                }
            }
        });
    drain();
}

void
ExecPool::parallelFor(
    long n, uint64_t seed,
    const std::function<void(const TaskContext &)> &body)
{
    parallelFor(n, [seed, &body](long i) {
        TaskContext ctx;
        ctx.index = i;
        ctx.seed = taskSeed(seed, i);
        body(ctx);
    });
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

namespace
{

/** strtol with a full-token validity check; fatal on junk. */
int
parseThreadCount(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    aim_assert(end != text && *end == '\0',
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
