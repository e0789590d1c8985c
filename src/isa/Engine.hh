/**
 * @file
 * The ISA execution engine: decode -> issuable-check -> issue ->
 * complete over a lowered Program (isa/Lower).
 *
 * The engine walks no physics of its own.  It runs the program's
 * rounds through sim::Runtime::run and observes the window loop
 * (sim::RoundObserver), so its RunReport is Runtime::run's on the
 * same (rounds, stream, seed) triple by construction.  What the
 * instruction granularity adds:
 *
 *   - a Scoreboard enforcing the explicit dependency tags, the
 *     BARRIER round boundary and the same-Set structural hazard,
 *     with per-opcode issue counters in the EngineReport
 *   - a cycle-accurate issue/complete trace (TraceSink / --trace):
 *     MAC_WINDOWs retire when their Set's last bit-serial pass
 *     lands, at the Set's wall clock
 *   - tailIdleNs: how long the chip's fastest Sets sit idle waiting
 *     for the slowest at the end of the final round -- the window
 *     the serving layer overlaps the next model's LOAD_WEIGHT into
 *     (serve/Dispatch reload overlap)
 *
 * Only MAC_WINDOW consumes simulated time; LOAD_WEIGHT, SET_SYNC,
 * RETUNE, SHIFT_ACC, NOP and BARRIER complete at issue, modelling
 * the round setup the round-level runtime performs implicitly at
 * round entry.  So only a MAC_WINDOW's retirement can make another
 * instruction issuable, and the observer re-runs its issue fixpoint
 * only in a window where one retired.
 *
 * On top of the physics walk the engine replays the program's
 * timing on per-Set lane clocks (isa/Schedule): measured MAC
 * durations plus the lowered Instr::costNs of loads/retunes give an
 * in-order cost-modelled makespan, and -- when a Schedule is passed
 * -- a software-pipelined one, with the saved difference reported.
 * The replay never feeds back into the physics, which is what keeps
 * droop/accuracy statistics bit-identical under scheduling.
 *
 * Each round keeps its own issue state (scoreboard, counters,
 * in-flight MACs, tail inputs, trace events) and writes its MAC
 * durations at its own instruction indices, so the rounds run on
 * Runtime's pool like any other run; the engine merges them in
 * round order, and the EngineReport and trace are bit-identical to
 * the serial run.
 */

#ifndef AIM_ISA_ENGINE_HH
#define AIM_ISA_ENGINE_HH

#include <array>
#include <memory>

#include "isa/Isa.hh"
#include "pim/ToggleModel.hh"
#include "sim/Runtime.hh"

namespace aim::exec
{
class ExecPool;
} // namespace aim::exec

namespace aim::isa
{

struct Schedule;

/** A Program run's outcome: the round-level report plus the
 * instruction-level accounting the round runtime cannot see. */
struct EngineReport
{
    /** Bit-identical to Runtime::run on the source rounds. */
    sim::RunReport run;
    /** Instructions decoded (= the program's instruction count). */
    long decoded = 0;
    /** Instructions issued / completed (equal after a full run). */
    long issued = 0;
    long completed = 0;
    /** Issue count per opcode (index = static_cast<int>(Opcode)). */
    std::array<long, kOpcodeCount> issuedByOp{};
    /** MAC_WINDOWs that carried a fused SHIFT_ACC. */
    long fusedMacs = 0;
    /**
     * Macro-weighted idle time at the program tail [ns]: walking
     * rounds backward, each round contributes its wall time scaled
     * by the fraction of macros no round from it onward touches,
     * plus -- for the final round -- the early-retired Sets' wait on
     * the slowest (both weighted by macro share).  Those macros sit
     * idle until the program retires, so a successor model's
     * LOAD_WEIGHT can stream into them under the trailing compute
     * (the serve/Dispatch reload-overlap budget).
     */
    double tailIdleNs = 0.0;
    /**
     * Cost-modelled makespan of the strict in-order issue machine
     * [ns]: measured MAC_WINDOW durations plus Instr::costNs of the
     * rest, replayed on per-Set lane clocks.  With all costs zero
     * (the default lowering) this equals run.wallTimeNs.
     */
    double inOrderMakespanNs = 0.0;
    /** Makespan of the scheduled (software-pipelined) issue order
     * [ns]; equals inOrderMakespanNs when no Schedule was passed. */
    double scheduledMakespanNs = 0.0;
    /** inOrderMakespanNs - scheduledMakespanNs (>= 0: every relaxed
     * edge is contained in the strict graph's closure). */
    double scheduleSavedNs = 0.0;
};

/** Executes lowered Programs on the modelled chip. */
class Engine
{
  public:
    /** Executes on a sim::Runtime of this configuration. */
    Engine(const pim::PimConfig &cfg, const power::Calibration &cal,
           const sim::RunConfig &rcfg);

    /**
     * Execute @p program.  Mirrors the Runtime::run contract: const,
     * stack-local mutable state (thread-safe for concurrent calls),
     * report a pure function of (program, stream, seed, config).
     *
     * @param carry optional electrical-state carry, identical
     *        semantics to Runtime::run's carry overload
     * @param trace optional sink receiving every issue/complete
     *        event in deterministic order
     * @param schedule optional software-pipelined issue order
     *        (isa::scheduleProgram of the same program): re-times
     *        the trace slots and the scheduledMakespanNs replay;
     *        the physics walk (and run) are unaffected
     * @param pool optional host pool the rounds run on concurrently;
     *        only a @p carry makes the run serial, and the report
     *        and trace are bit-identical either way
     */
    EngineReport
    run(const Program &program, const pim::StreamSpec &stream,
        uint64_t seed,
        std::unique_ptr<power::IrState> *carry = nullptr,
        TraceSink *trace = nullptr,
        const Schedule *schedule = nullptr,
        exec::ExecPool *pool = nullptr) const;

  private:
    sim::Runtime runtime;
};

} // namespace aim::isa

#endif // AIM_ISA_ENGINE_HH
