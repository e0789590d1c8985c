/**
 * @file
 * Chip-level runtime: executes compiled rounds on the 64-macro chip
 * with per-group IR monitors and IR-Booster controllers.
 *
 * Time advances in *windows* of one bit-serial pass (inputBits
 * cycles).  Every window, each active group samples its worst-macro
 * Rtog, the configured droop backend (power/IrBackend: Equation-2
 * analytic or incremental PDN-mesh) produces the group's droop, the
 * monitor digitizes it against the timing threshold of the current
 * frequency, and the Algorithm-2 controller reacts.  IRFailures
 * trigger recompute stalls for the failing group's Sets (Figure 11);
 * V-f switches cost settle windows.  Energy, wall time, IR-drop and
 * level statistics are aggregated into a RunReport.
 *
 * The engine itself is decomposed: sim/ChipState holds the round's
 * mutable state, sim/WindowKernel advances one window, and Runtime
 * is the thin orchestrator that maps tasks, loops windows and
 * finalizes reports.  Runtime is the only round executor: a
 * RoundObserver watches its window loop read-only, which is how the
 * instruction-level engine (src/isa/Engine) runs its scoreboard on
 * the same physics walk.
 *
 * Runtime::run runs two jobs.  The front job computes what is fixed
 * before the first window: the stream's toggle statistics (item 0,
 * seeded with the run seed) and each non-empty round's mapping (item
 * r + 1, seeded with the round seed, run seed + r + 1); none of them
 * reads another.  The round job then runs each round on its
 * precomputed mapping, reading only the toggle statistics and its
 * own seed.  Without an electrical-state carry both jobs run on an
 * exec::ExecPool into per-item slots, and the rounds merge in round
 * order, bit-identically to the serial loop; a carry runs both
 * jobs serially, in index order.
 */

#ifndef AIM_SIM_RUNTIME_HH
#define AIM_SIM_RUNTIME_HH

#include <map>
#include <memory>
#include <vector>

#include "booster/GroupBooster.hh"
#include "mapping/Mappers.hh"
#include "pim/ToggleModel.hh"
#include "power/IrBackend.hh"
#include "power/IrMonitor.hh"
#include "power/PowerModel.hh"
#include "power/VfTable.hh"
#include "sim/Compiler.hh"

namespace aim::exec
{
class ExecPool;
} // namespace aim::exec

namespace aim::sim
{

/** Runtime tuning. */
struct RunConfig
{
    booster::BoosterConfig boost;
    /** false = DVFS baseline: nominal pair, no adjustment. */
    bool useBooster = true;
    /** Mapping strategy for each round. */
    mapping::MapperKind mapper = mapping::MapperKind::HrAware;
    uint64_t seed = 31;
    /** Safety cap on windows per round. */
    long maxWindowsPerRound = 200000;
    /**
     * Droop-evaluation backend (power/IrBackend): Analytic keeps the
     * Equation-2 fast path (bit-identical to the pre-backend
     * runtime); Mesh re-solves the PdnMesh PDN incrementally per
     * window for layout-level fidelity; Transient advances an RC
     * mesh (decap + bump inductance) one implicit-Euler step per
     * window for di/dt first-droop fidelity.
     */
    power::IrBackendKind irBackend = power::IrBackendKind::Analytic;
    /** Per-node decap of the Transient backend [nF]. */
    double transientDecapNf = 20.0;
    /** Implicit-Euler step per window of the Transient backend
     * [ns]. */
    double transientDtNs = 2.0;
    /** Series bump/package loop inductance of the Transient backend
     * [pH]; scaled by a chip SKU's PDN corner (serve::PdnCorner) to
     * model parts with different power-delivery networks. */
    double transientBumpPh = 200.0;
};

/** Aggregated outcome of a run. */
struct RunReport
{
    /** Total wall time [ns]. */
    double wallTimeNs = 0.0;
    /** Total useful MACs executed. */
    double totalMacs = 0.0;
    /** Effective throughput [TOPS] (2 ops per MAC). */
    double tops = 0.0;
    /** Mean power per active macro [mW]. */
    double macroPowerMw = 0.0;
    /** Worst sampled group IR-drop [mV]. */
    double irWorstMv = 0.0;
    /** Mean sampled group IR-drop [mV]. */
    double irMeanMv = 0.0;
    /** IRFailure count. */
    long failures = 0;
    /** Windows lost to recomputing and V-f settling. */
    long stallWindows = 0;
    /** Useful (progress) windows. */
    long usefulWindows = 0;
    /** V-f switch count. */
    long vfSwitches = 0;
    /** Work-weighted mean Rtog level of active groups [%]. */
    double meanLevel = 0.0;
    /** Work-weighted mean cycle Rtog. */
    double meanRtog = 0.0;
    /**
     * Wall time of each executed round [ns], in execution order.
     * mergeReports concatenates, so a merged report carries the full
     * per-round latency breakdown of the model (the serving layer
     * consumes this for queueing and latency accounting).
     */
    std::vector<double> roundLatencyNs;

    /** Fraction of windows doing useful work. */
    double utilization() const;
    /** Energy efficiency proxy [TOPS/W of the macro array]. */
    double topsPerWatt(int activeMacros) const;
};

class ChipState;
struct WindowStats;

/**
 * Construction-time execution environment of the window engine:
 * everything Runtime::runRound needs that is immutable across
 * rounds -- the V-f table, power model, the per-frequency timing
 * thresholds (the table's one bisection each), the stall widths
 * and the shared droop backend.  A separate type so a caller can
 * build (and time) it without a Runtime, e.g. a harness that
 * replays the window loop call by call.
 */
struct RuntimeEnv
{
    RuntimeEnv(const pim::PimConfig &cfg,
               const power::Calibration &cal, const RunConfig &rcfg);

    pim::PimConfig cfg;
    power::Calibration cal;
    RunConfig rcfg;
    power::VfTable table;
    power::PowerModel pm;
    /** Timing threshold per grid frequency (the table's
     * gridVMinTiming, keyed by frequency). */
    std::map<double, double> vminByF;
    long recomputeStall = 1;
    long switchStall = 1;
    /** Shared across rounds and threads (immutable; evals are
     * per-round).  shared_ptr keeps the env copyable. */
    std::shared_ptr<const power::IrBackend> backend;
};

/**
 * Post-loop round finalization of Runtime::runRound, public for
 * callers that replay the window loop themselves: wall time from the
 * Set clocks, energy -> macro power, the work-weighted
 * level/Rtog/droop means and the effective-TOPS derivation.  @p rep
 * must already carry the loop-accumulated counters (failures,
 * stalls, useful windows, totalMacs).
 */
void finalizeRoundReport(const ChipState &state,
                         const WindowStats &stats,
                         const RuntimeEnv &env, RunReport &rep);

/**
 * Read-only subscriber to Runtime's window loop.  For every round
 * with tasks (an empty round is not observed) Runtime::run calls
 * begin after the round's setup, window after each window with the
 * count of windows so far (1, 2, ...), and end once the round has
 * converged.  The calls of one round are serial; pooled rounds call
 * from the pool's threads, so an observer keeps per-round state.
 */
class RoundObserver
{
  public:
    virtual ~RoundObserver() = default;
    virtual void begin(size_t round, const ChipState &state) = 0;
    virtual void window(size_t round, const ChipState &state,
                        long windowsSoFar) = 0;
    virtual void end(size_t round, const ChipState &state) = 0;
};

/** Executes rounds on the modelled chip. */
class Runtime
{
  public:
    Runtime(const pim::PimConfig &cfg, const power::Calibration &cal,
            const RunConfig &rcfg);

    /**
     * Run a compiled model.
     *
     * @param rounds compiled rounds
     * @param stream activation statistics of the workload
     */
    RunReport run(const std::vector<Round> &rounds,
                  const pim::StreamSpec &stream) const;

    /**
     * Run a compiled model with an explicit seed overriding
     * RunConfig::seed.  Lets one Runtime serve many requests with
     * decorrelated (but individually reproducible) noise streams.
     *
     * Thread-safety: run() is const and keeps all mutable execution
     * state (RNG, group/set bookkeeping, monitors, boosters) in
     * stack-local objects, so one Runtime may execute concurrent
     * run() calls from many threads.  The report is a pure function
     * of (rounds, stream, seed) and the construction-time config --
     * neither the calling thread nor the interleaving of concurrent
     * runs can change it, which is what lets exec::ExecPool
     * parallelize fleet serving bit-identically (src/stream/EventLoop).
     */
    RunReport run(const std::vector<Round> &rounds,
                  const pim::StreamSpec &stream,
                  uint64_t seed) const;

    /**
     * Run with electrical-state carry: @p carry (when non-null) is
     * read to seed the first round's droop evaluator and overwritten
     * with the settled state of the last round, so back-to-back
     * requests on one chip see burst continuity instead of a cold DC
     * re-init (stateful backends only; the analytic and mesh
     * backends export nothing and ignore seeds).  A null @p carry --
     * or a carry holding nullptr on entry for the first request --
     * executes the seedless path bit-identically to run(rounds,
     * stream, seed).  Callers that carry state serialize runs per
     * chip themselves; the carry pointer must not be shared across
     * concurrent calls.
     *
     * @param pool optional host pool: without a carry the front job
     *        (toggle statistics and round mappings) and then the
     *        rounds run on it concurrently, and the rounds merge in
     *        round order, so the report is bit-identical to the
     *        serial run at any thread count.  A carry chains the
     *        rounds, so it makes the run serial and the pool is
     *        ignored.
     * @param observer optional window-loop subscriber; it cannot
     *        change a report bit
     */
    RunReport run(const std::vector<Round> &rounds,
                  const pim::StreamSpec &stream, uint64_t seed,
                  std::unique_ptr<power::IrState> *carry,
                  exec::ExecPool *pool = nullptr,
                  RoundObserver *observer = nullptr) const;

    /** Access the V-f table (for reporting). */
    const power::VfTable &vfTable() const { return env.table; }

    /** The droop backend executing this runtime's windows. */
    const power::IrBackend &irBackend() const
    {
        return *env.backend;
    }

    /** The execution environment the rounds run against. */
    const RuntimeEnv &environment() const { return env; }

  private:
    RunReport runRound(size_t index, const Round &round,
                       const mapping::Mapping &map,
                       const pim::ToggleStats &toggles,
                       uint64_t roundSeed,
                       std::unique_ptr<power::IrState> *carry,
                       RoundObserver *observer) const;

    RuntimeEnv env;
};

/** Merge per-round reports (time-weighted means). */
RunReport mergeReports(const std::vector<RunReport> &parts);

} // namespace aim::sim

#endif // AIM_SIM_RUNTIME_HH
