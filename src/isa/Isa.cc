#include "isa/Isa.hh"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/Logging.hh"

namespace aim::isa
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
    case Opcode::LoadWeight:
        return "LOAD_WEIGHT";
    case Opcode::MacWindow:
        return "MAC_WINDOW";
    case Opcode::ShiftAcc:
        return "SHIFT_ACC";
    case Opcode::SetSync:
        return "SET_SYNC";
    case Opcode::Retune:
        return "RETUNE";
    case Opcode::Barrier:
        return "BARRIER";
    case Opcode::Nop:
        return "NOP";
    }
    aim_fatal("unknown Opcode ", static_cast<int>(op));
}

std::array<long, kOpcodeCount>
Program::opcodeCounts() const
{
    std::array<long, kOpcodeCount> counts{};
    for (const auto &instr : code)
        ++counts[static_cast<size_t>(instr.op)];
    return counts;
}

std::string
Program::renderCounts() const
{
    const auto counts = opcodeCounts();
    std::ostringstream os;
    for (int op = 0; op < kOpcodeCount; ++op) {
        if (counts[static_cast<size_t>(op)] == 0)
            continue;
        os << "  " << opcodeName(static_cast<Opcode>(op)) << ' '
           << counts[static_cast<size_t>(op)] << '\n';
    }
    return os.str();
}

CsvTrace::CsvTrace(std::ostream &os) : os(os)
{
    os << "instr,op,set,round,window,t_ns,slot,clk_ns,event\n";
}

void
CsvTrace::emit(const TraceEvent &ev)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%ld,%s,%d,%d,%ld,%.3f,%ld,%.3f,%s\n", ev.instr,
                  opcodeName(ev.op), ev.set, ev.round, ev.window,
                  ev.tNs, ev.slot, ev.clkNs, ev.event);
    os << line;
}

} // namespace aim::isa
