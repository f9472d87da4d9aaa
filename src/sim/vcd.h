// Minimal VCD (Value Change Dump) writer and reader.
//
// The paper's workloads arrive as .fsdb/.vcd activity files; this module
// provides the same interchange for our traces so workloads can be dumped
// from the simulator, inspected with standard tools, and read back into a
// ToggleTrace.
//
// One VCD timestep = one clock cycle (clock-network nets are omitted from
// the dump; reading replays their activity from the netlist through
// ToggleTrace::replay).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.h"
#include "sim/simulator.h"

namespace atlas::sim {

/// Serialize the data-net values of a trace as VCD text.
std::string write_vcd(const netlist::Netlist& nl, const ToggleTrace& trace,
                      const std::vector<bool>& clock_net_mask);

/// Malformed or mismatched trace input, VCD text or ATDT bytes (the typed
/// error the serve layer maps to kStreamProtocol / kBadRequest).
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard ceiling on the cycle count a parsed trace may declare. The parser
/// materializes one row of levels per timestep, so a hostile `#<huge>`
/// timestamp would otherwise be an allocation bomb; anything past the cap
/// throws before the rows are allocated. Matches the serve layer's
/// per-request cycle limit.
inline constexpr int kMaxVcdCycles = 1 << 20;

/// Parse VCD text produced by write_vcd, resolving signal names against `nl`,
/// and replay it into a ToggleTrace (see ToggleTrace::replay; nets absent
/// from the dump stay 0). Throws TraceError on malformed input, unknown net
/// names or ids, or a trace longer than `max_cycles` — never crashes or
/// over-allocates on hostile input (see TraceMutationProperty).
ToggleTrace parse_vcd(std::string_view text, const netlist::Netlist& nl,
                      int max_cycles = kMaxVcdCycles);

void save_vcd_file(const netlist::Netlist& nl, const ToggleTrace& trace,
                   const std::vector<bool>& clock_net_mask,
                   const std::string& path);

}  // namespace atlas::sim
