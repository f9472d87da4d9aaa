// Per-cycle grouped power analysis.
//
// Substitutes for Synopsys PrimeTime-PX time-based power simulation — both
// the paper's golden flow (post-layout netlist + SPEF wire caps) and its
// Gate-Level PTPX baseline (same engine on the unannotated gate-level
// netlist). Physics per cell per cycle, in the repo's unit system
// (fF / fJ / uW, see liberty/library.h):
//
//   internal   = transitions(out) * E_int(load)            [comb, CK, Q pins]
//              + clock-pin edges * E_ck                    [registers, ICGs,
//                                                           macro CLK pin]
//   switching  = transitions(out) * 0.5 * C_load * V^2,
//                C_load = annotated wire cap + sink pin caps
//   leakage    = constant per cell
//   macro      = read/write access energy per active cycle (CSB/WEB decoded
//                from the trace), matching the paper's Sec. VI-B memory model
//
// Power groups follow the paper (Sec. V footnote 3): the register group owns
// each register's clock-pin energy; the clock-tree group owns clock buffers
// and ICGs only — so a netlist without clock cells reports zero clock-tree
// power, reproducing the baseline's 100% clock-tree error.
//
// Switching power of primary-input nets has no driving cell and is excluded
// (I/O pad power is out of scope); every other net's power is attributed to
// its driver cell and thereby to exactly one sub-module.
#pragma once

#include <vector>

#include "liberty/types.h"
#include "netlist/netlist.h"
#include "sim/simulator.h"

namespace atlas::power {

/// Power of the four groups, in uW (per cycle) unless stated otherwise.
struct GroupPower {
  double comb = 0.0;
  double reg = 0.0;
  double clock = 0.0;
  double memory = 0.0;

  double total() const { return comb + reg + clock + memory; }
  /// Total excluding memory — the paper reports headline numbers without the
  /// (easy) memory group (Sec. VI-B).
  double total_no_memory() const { return comb + reg + clock; }

  void add(liberty::PowerGroup g, double uw);

  GroupPower& operator+=(const GroupPower& o);
};

struct PowerConfig {
  bool include_leakage = true;
};

/// Result of a per-cycle analysis: design-level and per-sub-module traces.
class PowerResult {
 public:
  /// Empty result (0 cycles); assign a real one before use.
  PowerResult() = default;
  PowerResult(int num_cycles, std::size_t num_submodules);

  int num_cycles() const { return num_cycles_; }
  std::size_t num_submodules() const { return num_submodules_; }

  const GroupPower& design(int cycle) const { return design_.at(static_cast<std::size_t>(cycle)); }
  const GroupPower& submodule(int cycle, netlist::SubmoduleId sm) const;

  GroupPower& mutable_design(int cycle) { return design_.at(static_cast<std::size_t>(cycle)); }
  GroupPower& mutable_submodule(int cycle, netlist::SubmoduleId sm);

  /// Average over cycles of the design-level trace.
  GroupPower average_design() const;
  /// Average over cycles, per sub-module.
  std::vector<GroupPower> average_submodules() const;

 private:
  int num_cycles_ = 0;
  std::size_t num_submodules_ = 0;
  std::vector<GroupPower> design_;     // [cycle]
  std::vector<GroupPower> submodule_;  // [cycle * num_submodules + sm]
};

/// Analyze every cycle of `trace` against `nl` (whose Net::wire_cap_ff
/// annotation decides gate-level vs post-layout fidelity).
PowerResult analyze_power(const netlist::Netlist& nl,
                          const sim::ToggleTrace& trace,
                          const PowerConfig& config = {});

}  // namespace atlas::power
