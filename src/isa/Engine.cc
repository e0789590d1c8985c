#include "isa/Engine.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "isa/Schedule.hh"
#include "isa/Scoreboard.hh"
#include "sim/ChipState.hh"
#include "util/Logging.hh"

namespace aim::isa
{

namespace
{

double
maxWallNs(const sim::ChipState &state)
{
    double t = 0.0;
    for (const auto &ss : state.sets)
        t = std::max(t, ss.wallNs);
    return t;
}

/** One round's issue state. */
struct Block
{
    std::optional<Scoreboard> sb;
    long issued = 0;
    long completed = 0;
    std::array<long, kOpcodeCount> issuedByOp{};
    /** MAC_WINDOWs in flight: Set id -> instruction (ascending Set
     * order keeps retirement deterministic). */
    std::map<int, size_t> inflight;
    /** Tail-idle inputs: macro ids the round's mapping occupies, its
     * wall time and the macro-weighted Set wait on its slowest Set
     * [ns]. */
    std::vector<int> activeMacros;
    double wallNs = 0.0;
    double setImbalanceNs = 0.0;
    /** The round's trace events, unstamped (traced runs only). */
    std::vector<TraceEvent> events;
};

/** Drives each round's Block from Runtime's window loop. */
class BlockObserver final : public sim::RoundObserver
{
  public:
    BlockObserver(const Program &program, bool traced,
                  double chipMacros, std::vector<double> &durNs)
        : blocks(program.rounds.size()), program(program),
          traced(traced), chipMacros(chipMacros), durNs(durNs)
    {
    }

    /** An empty round is not observed: its block is a single NOP,
     * which issues and completes at 0. */
    void nop(size_t round)
    {
        const Program::Span span = program.roundSpan[round];
        aim_assert(span.end == span.begin + 1 &&
                       program.code[span.begin].op == Opcode::Nop,
                   "empty round ", round,
                   " did not lower to a single NOP");
        Block &b = open(round);
        issueAt(b, span.begin, 0, 0.0);
        completeAt(b, span.begin, 0, 0.0);
    }

    void begin(size_t round, const sim::ChipState &state) override
    {
        // Lowering must agree with the round setup pass-for-pass: a
        // MAC_WINDOW's window operand is exactly the Set's
        // bit-serial pass count.
        const Program::Span span = program.roundSpan[round];
        for (size_t i = span.begin; i < span.end; ++i) {
            const Instr &instr = program.code[i];
            if (instr.op != Opcode::MacWindow)
                continue;
            const sim::SetState *ss = state.findSet(instr.set);
            aim_assert(ss, "MAC_WINDOW targets Set ", instr.set,
                       " which hosts no tasks");
            aim_assert(ss->remaining == instr.windows, "lowered ",
                       instr.windows, " windows for Set ", instr.set,
                       " but round ", round, " set up ", ss->remaining);
        }
        cascade(open(round), state, 0);
    }

    void window(size_t round, const sim::ChipState &state,
                long windowsSoFar) override
    {
        // Retire MAC_WINDOWs whose Set just ran its last pass, at the
        // Set's wall clock: the MAC's replay duration.
        Block &b = blocks[round];
        bool retired = false;
        for (auto it = b.inflight.begin(); it != b.inflight.end();) {
            const sim::SetState &ss = *state.findSet(it->first);
            if (ss.remaining == 0) {
                durNs[it->second] = ss.wallNs;
                completeAt(b, it->second, windowsSoFar, ss.wallNs);
                it = b.inflight.erase(it);
                retired = true;
            } else {
                ++it;
            }
        }
        // Only a completion changes the scoreboard, so a window that
        // retired nothing leaves the last fixpoint standing.
        if (retired)
            cascade(b, state, windowsSoFar);
    }

    void end(size_t round, const sim::ChipState &state) override
    {
        Block &b = blocks[round];
        aim_assert(b.sb->allCompleted(), "round ", round,
                   " retired with ", b.sb->pendingCount(),
                   " instructions pending");
        // A Set's macros idle from its last pass to the BARRIER.
        for (const auto &group : state.activeMacroIds())
            b.activeMacros.insert(b.activeMacros.end(), group.begin(),
                                  group.end());
        b.wallNs = maxWallNs(state);
        const Program::Span span = program.roundSpan[round];
        for (size_t i = span.begin; i < span.end; ++i) {
            const Instr &instr = program.code[i];
            if (instr.op != Opcode::MacWindow)
                continue;
            const sim::SetState &ss = *state.findSet(instr.set);
            b.setImbalanceNs += (b.wallNs - ss.wallNs) *
                                static_cast<double>(instr.macros) /
                                chipMacros;
        }
    }

    std::vector<Block> blocks;

  private:
    Block &open(size_t round)
    {
        const Program::Span span = program.roundSpan[round];
        Block &b = blocks[round];
        b.sb.emplace(program.code, span.begin, span.end);
        return b;
    }

    void emit(Block &b, size_t i, long window, double t_ns,
              const char *event)
    {
        if (!traced)
            return;
        TraceEvent ev;
        ev.instr = static_cast<long>(i);
        ev.op = program.code[i].op;
        ev.set = program.code[i].set;
        ev.round = program.code[i].round;
        ev.window = window;
        ev.tNs = t_ns;
        ev.event = event;
        b.events.push_back(ev);
    }

    void issueAt(Block &b, size_t i, long window, double t_ns)
    {
        b.sb->issue(i);
        ++b.issued;
        ++b.issuedByOp[static_cast<size_t>(program.code[i].op)];
        emit(b, i, window, t_ns, "issue");
    }

    void completeAt(Block &b, size_t i, long window, double t_ns)
    {
        b.sb->complete(i);
        ++b.completed;
        emit(b, i, window, t_ns, "complete");
    }

    /** Issue everything the scoreboard allows; zero-latency opcodes
     * (round setup: loads, syncs, retune, shifts, the barrier)
     * complete at issue, which may unblock more -- iterate to a
     * fixpoint, ascending program order. */
    void cascade(Block &b, const sim::ChipState &state, long window)
    {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t i = b.sb->begin(); i < b.sb->end(); ++i) {
                if (!b.sb->issuable(i))
                    continue;
                const Instr &instr = program.code[i];
                const sim::SetState *ss =
                    instr.set >= 0 ? state.findSet(instr.set) : nullptr;
                const double t = ss ? ss->wallNs : maxWallNs(state);
                issueAt(b, i, window, t);
                if (instr.op == Opcode::MacWindow)
                    b.inflight.emplace(instr.set, i);
                else
                    completeAt(b, i, window, t);
                progressed = true;
            }
        }
    }

    const Program &program;
    bool traced;
    double chipMacros;
    std::vector<double> &durNs;
};

} // namespace

Engine::Engine(const pim::PimConfig &cfg,
               const power::Calibration &cal,
               const sim::RunConfig &rcfg)
    : runtime(cfg, cal, rcfg)
{
}

EngineReport
Engine::run(const Program &program, const pim::StreamSpec &stream,
            uint64_t seed, std::unique_ptr<power::IrState> *carry,
            TraceSink *trace, const Schedule *schedule,
            exec::ExecPool *pool) const
{
    aim_assert(program.roundSpan.size() == program.rounds.size(),
               "program has ", program.roundSpan.size(),
               " round spans for ", program.rounds.size(),
               " rounds");
    aim_assert(!schedule ||
                   schedule->order.size() == program.code.size(),
               "schedule covers ",
               schedule ? schedule->order.size() : 0,
               " instructions for a program of ",
               program.code.size());
    EngineReport er;
    er.fusedMacs = program.fusedMacs;

    // Per-instruction durations of the timing replay: lowered costs
    // for round setup, measured Set wall clocks for MAC_WINDOWs
    // (filled at retirement by the observer).
    std::vector<double> dur_ns(program.code.size(), 0.0);
    for (size_t i = 0; i < program.code.size(); ++i)
        if (program.code[i].op != Opcode::MacWindow)
            dur_ns[i] = program.code[i].costNs;

    const pim::PimConfig &cfg = runtime.environment().cfg;
    const double chip_macros =
        static_cast<double>(cfg.groups * cfg.macrosPerGroup);
    BlockObserver obs(program, trace != nullptr, chip_macros, dur_ns);
    for (size_t r = 0; r < program.rounds.size(); ++r)
        if (program.rounds[r].tasks.empty())
            obs.nop(r);
    er.run = runtime.run(program.rounds, stream, seed, carry, pool, &obs);
    for (size_t r = 0; r < obs.blocks.size(); ++r) {
        const Block &b = obs.blocks[r];
        const Program::Span span = program.roundSpan[r];
        er.decoded += static_cast<long>(span.end - span.begin);
        er.issued += b.issued;
        er.completed += b.completed;
        for (size_t op = 0; op < er.issuedByOp.size(); ++op)
            er.issuedByOp[op] += b.issuedByOp[op];
    }

    // The cost-modelled timing replay: the strict in-order makespan
    // always, the software-pipelined one when a schedule is active.
    // Physics (er.run) is untouched either way.
    const TimingReplay inorder =
        replayTiming(program, dur_ns, false);
    er.inOrderMakespanNs = inorder.makespanNs;
    er.scheduledMakespanNs = inorder.makespanNs;
    TimingReplay piped;
    const TimingReplay *clk = &inorder;
    if (schedule) {
        piped = replayTiming(program, dur_ns, true);
        er.scheduledMakespanNs = piped.makespanNs;
        er.scheduleSavedNs =
            er.inOrderMakespanNs - er.scheduledMakespanNs;
        clk = &piped;
    }
    // Each round's events, in round order, stamped with their issue
    // slot and lane clock.
    if (trace) {
        for (const Block &b : obs.blocks) {
            for (TraceEvent ev : b.events) {
                const auto i = static_cast<size_t>(ev.instr);
                ev.slot = schedule ? schedule->slotOf[i] : ev.instr;
                ev.clkNs = ev.event[0] == 'i' ? clk->startNs[i]
                                              : clk->completeNs[i];
                trace->emit(ev);
            }
        }
    }

    // Tail-idle budget: walk rounds backward; a round's wall time
    // counts in proportion to the macros no round from it onward
    // touches (they idle until the program retires), and the final
    // round adds its early-retired Sets' macro-weighted wait.  Once
    // the trailing union covers the chip, earlier rounds hide
    // nothing and the walk stops.
    std::set<int> touched;
    bool last_seen = false;
    for (size_t r = program.rounds.size(); r-- > 0;) {
        if (program.rounds[r].tasks.empty())
            continue;
        const Block &b = obs.blocks[r];
        touched.insert(b.activeMacros.begin(), b.activeMacros.end());
        if (!last_seen) {
            er.tailIdleNs += b.setImbalanceNs;
            last_seen = true;
        }
        const double idle_frac =
            1.0 - static_cast<double>(touched.size()) / chip_macros;
        if (idle_frac <= 0.0)
            break;
        er.tailIdleNs += b.wallNs * idle_frac;
    }
    return er;
}

} // namespace aim::isa
