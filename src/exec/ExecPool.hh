/**
 * @file
 * Deterministic fork-join pool of the simulator.  Every parallel call
 * in the library is one index-space fan-out over items whose results
 * are pure functions of (inputs, index): a network's layers in LHR
 * QAT, a request's rounds in sim::Runtime::run, the serving loop's
 * execute-ahead and sample batches, the sharded (stage, micro-batch)
 * grid, a bench's sweep points.  So parallel execution can be made
 * *bit-identical* to the serial run: items are pulled off a shared
 * atomic cursor, every stochastic item derives its seed from its own
 * index (taskSeed, never from the executing thread), and results land
 * in index-order slots.  Which thread computes an item therefore
 * never changes what is computed.
 *
 * parallelFor() publishes one job -- the body, n and the cursor -- to
 * the threads() - 1 parked workers, pulls items on the calling thread
 * too, and returns when the last puller has left the job.  The first
 * exception thrown by any item cancels the items not yet started and
 * is rethrown on the calling thread; the pool stays usable.
 *
 * threads == 1 never spawns: everything runs inline on the calling
 * thread, in index order, which is the reference serial schedule that
 * N-thread runs are tested against (tests/serve/ServeGoldenTest).  A
 * single item runs inline too, and leaves the pool free for any
 * fan-out the item itself issues.
 *
 * A pool runs one job at a time.  A parallelFor() that finds its pool
 * running a job runs its items inline, in index order, exactly like
 * the 1-thread pool: the call may come from one of that job's items
 * (on a worker or on the caller) or from another pool's thread those
 * items drive, and waiting for the pool from inside its own job would
 * never return.  So library code may take a
 * caller's pool and fan out on it whether or not the call itself runs
 * inside that pool (serve::RequestExecutor runs a request's rounds on
 * the serving loop's pool at dispatch and serially inside its
 * execute-ahead items), and pools nest across instances:
 * workload::synthesizeWeights fills a model's layers,
 * quant::QatTrainer::run quantizes (and trains) them,
 * AimPipeline::runOffline shifts them with WDS, sim::compileModel
 * tiles its operators and AimPipeline::execute runs a request's
 * rounds, each on a pool it creates per call (threadsFor(items)
 * threads), and any of them may itself run inside another pool's
 * items (bench_fig18_beta_sweep runs whole pipelines as sweep
 * points).
 */

#ifndef AIM_EXEC_EXECPOOL_HH
#define AIM_EXEC_EXECPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aim::exec
{

/** Fixed-size fork-join pool: the caller plus threads() - 1 workers. */
class ExecPool
{
  public:
    /**
     * @param threads pullers per job, the calling thread included;
     *        <= 0 resolves to the hardware concurrency (min 1).  1
     *        means inline execution -- no threads are spawned at all.
     */
    explicit ExecPool(int threads = 0);

    /** Joins the workers. */
    ~ExecPool();

    ExecPool(const ExecPool &) = delete;
    ExecPool &operator=(const ExecPool &) = delete;

    /** Resolved thread count (>= 1). */
    int threads() const { return nThreads; }

    /**
     * Run body(i) for every i in [0, n); returns when all items are
     * done.  Items are pulled from a shared cursor, so the assignment
     * of items to threads is dynamic -- callers must keep body(i) a
     * pure function of i (plus read-only shared state) for
     * determinism.  The first exception thrown by any item is
     * rethrown here after the remaining items are cancelled.  A
     * single item, or any call while the pool runs a job, runs inline
     * on the calling thread.
     */
    void parallelFor(long n, const std::function<void(long)> &body);

    /**
     * Seed of item @p index of a stochastic fan-out seeded with
     * @p seed: a pure function of (seed, index), never 0.
     */
    static uint64_t taskSeed(uint64_t seed, long index);

    /** <= 0 or absent request -> hardware concurrency (min 1). */
    static int resolveThreads(int requested);

    /**
     * Threads of a per-call pool over @p items: min(items, hardware
     * concurrency), at least 1, so a call with one item spawns no
     * thread.
     */
    static int threadsFor(long items);

    /**
     * Extract a `--threads N` (or `--threads=N`) flag from argv,
     * compacting argc/argv in place, so binaries can add end-to-end
     * threading without disturbing positional arguments.  Returns
     * the resolved thread count: N when given (N <= 0 = hardware
     * concurrency), @p absentDefault when the flag is absent.
     * Fatal on a value that is not an integer token or does not fit
     * an int.
     */
    static int stripThreadsFlag(int &argc, char **argv,
                                int absentDefault = 1);

  private:
    struct Job;

    void workerLoop();

    int nThreads = 1;

    std::mutex mu;
    std::condition_variable cvJob;  ///< a job was published, or stop
    std::condition_variable cvIdle; ///< a worker left the job
    Job *job = nullptr;      ///< the running job; nullptr when idle
    uint64_t published = 0;  ///< jobs published so far
    int inJob = 0;           ///< workers inside the running job
    bool stopping = false;
    std::vector<std::thread> workers;
};

} // namespace aim::exec

#endif // AIM_EXEC_EXECPOOL_HH
