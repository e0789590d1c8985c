/**
 * @file
 * Deterministic work-pool of the simulator.  The hot layers of the
 * repo (fleet serving, parameter sweeps) are embarrassingly parallel
 * over items whose results are pure functions of (inputs, seed), so
 * parallel execution can be made *bit-identical* to the serial run:
 * workers pull item indices from a shared atomic cursor, every item
 * derives its seed from the submission seed and its own index (never
 * from the executing thread), and results land in index-order slots.
 * Which worker computes an item therefore never changes what is
 * computed.
 *
 * ExecPool is intentionally small:
 *
 *   post()/drain() -- a bounded task queue for irregular work; post
 *       blocks when the queue is full so producers cannot outrun the
 *       workers unboundedly
 *   parallelFor()  -- index-space fan-out with exception propagation
 *       (the first exception thrown by any item is rethrown on the
 *       calling thread once all workers have stopped)
 *   TaskContext    -- per-item index + derived seed for stochastic
 *       items
 *
 * threads == 1 never spawns: everything runs inline on the calling
 * thread, which is the reference serial schedule that N-thread runs
 * are tested against (tests/serve/ServeGoldenTest).
 *
 * A parallelFor() issued from one of the pool's own workers runs its
 * items inline on that worker, in index order, exactly like the
 * 1-thread pool: the pool is already busy, and waiting on it from
 * inside would never return.  So library code may take a caller's
 * pool and fan out on it whether or not the call itself runs inside
 * that pool (serve::RequestExecutor runs a request's rounds on the
 * serving loop's pool at dispatch and serially inside its
 * execute-ahead workers).  drain() from inside a task of the same
 * pool stays forbidden -- it waits for an in-flight count that
 * includes the calling task -- and is fatal.  Pools nest across
 * instances as before: quant::QatTrainer::run trains a network's
 * layers, and AimPipeline::execute runs a request's rounds, on a pool
 * each creates per call, and either may itself run inside another
 * pool's workers (bench_fig18_beta_sweep runs pipelines inside
 * SweepDriver).
 */

#ifndef AIM_EXEC_EXECPOOL_HH
#define AIM_EXEC_EXECPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aim::exec
{

/** What a seeded parallelFor item knows about itself. */
struct TaskContext
{
    /** Item index in [0, n); identical across thread counts. */
    long index = 0;
    /**
     * Seed derived from (submission seed, index) via splitmix-style
     * mixing -- a pure function of the index, never of the worker, so
     * stochastic items reproduce bit-for-bit at any thread count.
     */
    uint64_t seed = 0;
};

/** Fixed-size worker pool with a bounded task queue. */
class ExecPool
{
  public:
    /**
     * @param threads worker count; <= 0 resolves to the hardware
     *        concurrency (min 1).  1 means inline execution -- no
     *        threads are spawned at all.
     * @param queueBound max tasks waiting in the post() queue before
     *        post() blocks the producer (>= 1).
     */
    explicit ExecPool(int threads = 0, int queueBound = 64);

    /** Drains outstanding work, then joins the workers. */
    ~ExecPool();

    ExecPool(const ExecPool &) = delete;
    ExecPool &operator=(const ExecPool &) = delete;

    /** Resolved worker count (>= 1). */
    int threads() const { return nThreads; }

    /**
     * Enqueue one task.  Blocks while the queue holds queueBound
     * tasks.  With 1 thread the task runs inline before post()
     * returns.  Task exceptions are captured and rethrown by the
     * next drain().
     */
    void post(std::function<void()> task);

    /**
     * Wait until every post()ed task has finished.  Rethrows the
     * first exception any task raised since the last drain().
     * Fatal when called from inside a task of this pool.
     */
    void drain();

    /**
     * Run body(i) for every i in [0, n), distributing items across
     * the workers; returns when all items are done.  Items are pulled
     * from a shared cursor, so the assignment of items to threads is
     * dynamic -- callers must keep body(i) a pure function of i (plus
     * read-only shared state) for determinism.  The first exception
     * thrown by any item is rethrown here after remaining items are
     * cancelled.  Called from one of this pool's workers, the items
     * run inline on that worker.
     */
    void parallelFor(long n, const std::function<void(long)> &body);

    /**
     * Seeded variant: body receives a TaskContext whose seed derives
     * from @p seed and the item index only.
     */
    void parallelFor(long n, uint64_t seed,
                     const std::function<void(const TaskContext &)>
                         &body);

    /** The seed a seeded parallelFor item at @p index receives. */
    static uint64_t taskSeed(uint64_t seed, long index);

    /** <= 0 or absent request -> hardware concurrency (min 1). */
    static int resolveThreads(int requested);

    /**
     * Extract a `--threads N` (or `--threads=N`) flag from argv,
     * compacting argc/argv in place, so binaries can add end-to-end
     * threading without disturbing positional arguments.  Returns
     * the resolved thread count: N when given (N <= 0 = hardware
     * concurrency), @p absentDefault when the flag is absent.
     * Fatal on a malformed (non-integer) value.
     */
    static int stripThreadsFlag(int &argc, char **argv,
                                int absentDefault = 1);

  private:
    void workerLoop();

    /** Is the calling thread one of this pool's workers? */
    bool onWorker() const;

    int nThreads = 1;
    size_t bound = 64;

    std::mutex mu;
    std::condition_variable cvWork;  ///< queue became non-empty
    std::condition_variable cvSpace; ///< queue has room again
    std::condition_variable cvIdle;  ///< all posted work finished
    std::deque<std::function<void()>> queue;
    long inFlight = 0; ///< queued + currently executing tasks
    bool stopping = false;
    std::exception_ptr firstError;
    std::vector<std::thread> workers;
};

} // namespace aim::exec

#endif // AIM_EXEC_EXECPOOL_HH
