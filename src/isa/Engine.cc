#include "isa/Engine.hh"

#include <algorithm>
#include <map>
#include <set>

#include "exec/ExecPool.hh"
#include "isa/Schedule.hh"
#include "isa/Scoreboard.hh"
#include "sim/ChipState.hh"
#include "sim/WindowKernel.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"

namespace aim::isa
{

namespace
{

double
maxWallNs(const sim::ChipState &state)
{
    double t = 0.0;
    for (const auto &[sid, ss] : state.sets)
        t = std::max(t, ss.wallNs);
    return t;
}

/** Buffers trace events so the timing replay (which needs the whole
 * run's measured MAC durations) can fill slot/clkNs before the real
 * sink sees them. */
class BufferSink final : public TraceSink
{
  public:
    void emit(const TraceEvent &ev) override
    {
        events.push_back(ev);
    }

    std::vector<TraceEvent> events;
};

} // namespace

Engine::Engine(const pim::PimConfig &cfg,
               const power::Calibration &cal,
               const sim::RunConfig &rcfg)
    : env(cfg, cal, rcfg)
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
    // (filled at retirement by runBlock).
    std::vector<double> dur_ns(program.code.size(), 0.0);
    for (size_t i = 0; i < program.code.size(); ++i)
        if (program.code[i].op != Opcode::MacWindow)
            dur_ns[i] = program.code[i].costNs;

    // Trace events are buffered so the replay below can stamp each
    // one with its issue slot and lane clock before emission.
    BufferSink buffer;
    TraceSink *const sink = trace ? &buffer : nullptr;

    // Identical preamble and per-round seed walk to Runtime::run, so
    // the physics below sees byte-identical inputs.
    const auto toggles =
        pim::estimateToggleStats(stream, env.cfg.rows, 200, seed);
    std::vector<BlockOut> blocks(program.rounds.size());
    const auto block = [&](long r) {
        const auto i = static_cast<size_t>(r);
        runBlock(program, i, toggles,
                 seed + static_cast<uint64_t>(r) + 1, carry, sink,
                 blocks[i], dur_ns);
    };
    const auto n = static_cast<long>(program.rounds.size());
    if (pool && !carry && !sink)
        pool->parallelFor(n, block);
    else
        for (long r = 0; r < n; ++r)
            block(r);
    std::vector<sim::RunReport> parts;
    parts.reserve(blocks.size());
    for (const BlockOut &b : blocks) {
        parts.push_back(b.run);
        er.decoded += b.decoded;
        er.issued += b.issued;
        er.completed += b.completed;
        for (size_t op = 0; op < er.issuedByOp.size(); ++op)
            er.issuedByOp[op] += b.issuedByOp[op];
    }
    er.run = sim::mergeReports(parts);

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
    if (trace) {
        for (TraceEvent ev : buffer.events) {
            const auto i = static_cast<size_t>(ev.instr);
            ev.slot =
                schedule ? schedule->slotOf[i] : ev.instr;
            ev.clkNs = ev.event[0] == 'i' ? clk->startNs[i]
                                          : clk->completeNs[i];
            trace->emit(ev);
        }
    }

    // Tail-idle budget: walk rounds backward; a round's wall time
    // counts in proportion to the macros no round from it onward
    // touches (they idle until the program retires), and the final
    // round adds its early-retired Sets' macro-weighted wait.  Once
    // the trailing union covers the chip, earlier rounds hide
    // nothing and the walk stops.
    const double chip_macros = static_cast<double>(
        env.cfg.groups * env.cfg.macrosPerGroup);
    std::set<int> touched;
    bool last_seen = false;
    for (size_t r = program.rounds.size(); r-- > 0;) {
        if (program.rounds[r].tasks.empty())
            continue;
        touched.insert(blocks[r].activeMacros.begin(),
                       blocks[r].activeMacros.end());
        if (!last_seen) {
            er.tailIdleNs += blocks[r].setImbalanceNs;
            last_seen = true;
        }
        const double idle_frac =
            1.0 - static_cast<double>(touched.size()) / chip_macros;
        if (idle_frac <= 0.0)
            break;
        er.tailIdleNs += parts[r].wallTimeNs * idle_frac;
    }
    return er;
}

void
Engine::runBlock(const Program &program, size_t round,
                 const pim::ToggleStats &toggles, uint64_t round_seed,
                 std::unique_ptr<power::IrState> *carry,
                 TraceSink *trace, BlockOut &out,
                 std::vector<double> &durNs) const
{
    const auto &code = program.code;
    const Program::Span span = program.roundSpan[round];
    const sim::Round &rnd = program.rounds[round];
    out.decoded = static_cast<long>(span.end - span.begin);

    Scoreboard sb(code, span.begin, span.end);
    long window = 0;

    const auto emit = [&](size_t i, double t_ns,
                          const char *event) {
        if (!trace)
            return;
        TraceEvent ev;
        ev.instr = static_cast<long>(i);
        ev.op = code[i].op;
        ev.set = code[i].set;
        ev.round = code[i].round;
        ev.window = window;
        ev.tNs = t_ns;
        ev.event = event;
        trace->emit(ev);
    };
    const auto issueAt = [&](size_t i, double t_ns) {
        sb.issue(i);
        ++out.issued;
        ++out.issuedByOp[static_cast<size_t>(code[i].op)];
        emit(i, t_ns, "issue");
    };
    const auto completeAt = [&](size_t i, double t_ns) {
        sb.complete(i);
        ++out.completed;
        emit(i, t_ns, "complete");
    };

    sim::RunReport &rep = out.run;
    if (rnd.tasks.empty()) {
        // The block is a single NOP; like Runtime::runRound's early
        // return, an empty round consumes no time, no RNG and does
        // not touch the carry.
        aim_assert(span.end == span.begin + 1 &&
                       code[span.begin].op == Opcode::Nop,
                   "empty round ", round,
                   " did not lower to a single NOP");
        issueAt(span.begin, 0.0);
        completeAt(span.begin, 0.0);
        return;
    }

    util::Rng rng(round_seed);

    const auto objective =
        env.rcfg.boost.mode == booster::BoostMode::Sprint
            ? mapping::Objective::Sprint
            : mapping::Objective::LowPower;
    mapping::MappingEvaluator eval(env.cfg, env.table, env.pm,
                                   objective, round_seed);
    const mapping::Mapping map = mapWith(
        env.rcfg.mapper, rnd.tasks, env.cfg, eval, round_seed);

    sim::ChipState state(env.cfg, env.cal, env.table, env.rcfg.boost,
                         env.rcfg.useBooster, rnd, map, toggles,
                         rng);
    rep.totalMacs = state.totalMacs;

    // Lowering must agree with the round setup pass-for-pass: a
    // MAC_WINDOW's window operand is exactly the Set's bit-serial
    // pass count.  This is the 1:1 contract the bit-identity rests
    // on, so check it rather than assume it.
    for (size_t i = span.begin; i < span.end; ++i) {
        if (code[i].op != Opcode::MacWindow)
            continue;
        const auto it = state.sets.find(code[i].set);
        aim_assert(it != state.sets.end(), "MAC_WINDOW targets Set ",
                   code[i].set, " which hosts no tasks");
        aim_assert(it->second.remaining == code[i].windows,
                   "lowered ", code[i].windows,
                   " windows for Set ", code[i].set, " but round ",
                   round, " set up ", it->second.remaining);
    }

    const auto droop =
        carry ? env.backend->newEval(state.activeMacroIds(),
                                     carry->get())
              : env.backend->newEval(state.activeMacroIds());

    sim::WindowKernel kernel(env.cfg, env.cal, env.rcfg.useBooster,
                             env.pm, env.vminByF, env.recomputeStall,
                             env.switchStall);
    sim::WindowStats stats;

    // MAC_WINDOWs in flight: Set id -> instruction (ascending Set
    // order keeps retirement deterministic).
    std::map<int, size_t> inflight;

    // Issue everything the scoreboard allows; zero-latency opcodes
    // (round setup: loads, syncs, retune, shifts, the barrier)
    // complete at issue, which may unblock more -- iterate to a
    // fixpoint, ascending program order.
    const auto cascade = [&] {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t i = span.begin; i < span.end; ++i) {
                if (!sb.issuable(i))
                    continue;
                const Instr &instr = code[i];
                const double t =
                    instr.set >= 0 &&
                            state.sets.count(instr.set)
                        ? state.sets.at(instr.set).wallNs
                        : maxWallNs(state);
                issueAt(i, t);
                if (instr.op == Opcode::MacWindow) {
                    inflight.emplace(instr.set, i);
                } else {
                    completeAt(i, t);
                }
                progressed = true;
            }
        }
    };

    cascade();

    // The window loop: byte-identical physics to Runtime::runRound
    // (the scoreboard reads ChipState, never writes it).
    for (; window < env.rcfg.maxWindowsPerRound &&
           state.anyRemaining();) {
        kernel.step(state, *droop, rng, rep, stats);
        ++window;
        // Retire MAC_WINDOWs whose Set just ran its last pass, at
        // the Set's wall clock.
        for (auto it = inflight.begin(); it != inflight.end();) {
            const sim::SetState &ss = state.sets.at(it->first);
            if (ss.remaining == 0) {
                // The MAC's replay duration is the Set's measured
                // wall within its round.
                durNs[it->second] = ss.wallNs;
                completeAt(it->second, ss.wallNs);
                it = inflight.erase(it);
            } else {
                ++it;
            }
        }
        cascade();
    }
    aim_assert(!state.anyRemaining(),
               "round did not converge within ",
               env.rcfg.maxWindowsPerRound, " windows");
    aim_assert(sb.allCompleted(), "round ", round, " retired with ",
               sb.pendingCount(), " instructions pending");

    // Tail accounting inputs: the round's macro footprint and the
    // macro-weighted wait of its early-retired Sets on the slowest
    // (a Set's macros idle from its last pass to the BARRIER).
    for (const auto &group : state.activeMacroIds())
        out.activeMacros.insert(out.activeMacros.end(), group.begin(),
                                group.end());
    const double chip_macros = static_cast<double>(
        env.cfg.groups * env.cfg.macrosPerGroup);
    const double round_wall = maxWallNs(state);
    for (size_t i = span.begin; i < span.end; ++i) {
        if (code[i].op != Opcode::MacWindow)
            continue;
        const sim::SetState &ss = state.sets.at(code[i].set);
        out.setImbalanceNs += (round_wall - ss.wallNs) *
                              static_cast<double>(code[i].macros) /
                              chip_macros;
    }

    finalizeRoundReport(state, stats, env, rep);
    if (carry)
        *carry = droop->exportState();
}

} // namespace aim::isa
