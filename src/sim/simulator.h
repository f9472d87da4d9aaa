// Cycle-based gate-level logic simulator and per-cycle toggle traces.
//
// Substitutes for the paper's VCS gate-level workload simulation. The model
// is a zero-delay, glitch-free, 2-value cycle simulator:
//
//   * data nets record logic value per cycle and 0/1 transitions per cycle;
//   * clock-network nets (the clock primary input and everything reached
//     through CK cells) toggle twice per active cycle; an integrated clock
//     gate (CKGATE) blocks downstream clock activity when its enable —
//     sampled from the previous cycle, as a real ICG latch does — is low;
//   * registers capture D from the end of the previous cycle on each active
//     clock edge; DFFR applies an active-low synchronous reset; latches are
//     approximated as edge-triggered on their previous-cycle enable;
//   * SRAM macros implement 1RW synchronous read/write (CSB/WEB active low).
//
// This is exactly the information ATLAS consumes (per-cycle toggles) and the
// power analyzer integrates (transition counts per net per cycle).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "sim/stimulus.h"

namespace atlas::sim {

/// Per-net, per-cycle values and transition counts.
class ToggleTrace {
 public:
  /// Empty trace (0 nets, 0 cycles); assign a real one before use.
  ToggleTrace() = default;
  ToggleTrace(std::size_t num_nets, int num_cycles);

  std::size_t num_nets() const { return num_nets_; }
  int num_cycles() const { return num_cycles_; }

  bool value(int cycle, netlist::NetId net) const {
    return (at(cycle, net) & 0x1) != 0;
  }
  /// Transitions on the net during this cycle: 0, 1 (data flip) or 2 (clock).
  int transitions(int cycle, netlist::NetId net) const {
    return at(cycle, net) >> 1;
  }
  void set(int cycle, netlist::NetId net, bool value, int transitions);

  /// Average transitions per cycle over the whole trace.
  double toggle_rate(netlist::NetId net) const;

  /// Total transitions on a net across all cycles.
  long long total_transitions(netlist::NetId net) const;

  /// Rebuild a trace from decoded VCD/ATDT levels: `levels` (num_cycles
  /// rows of num_nets 0/1 bytes) becomes the trace's storage, and the clock
  /// nets, which neither encoding stores, replay through ClockNetwork.
  /// Cycle 0 has no previous levels, so it carries no data transitions and
  /// ignores ICG enables; from cycle 1 on a replay equals the simulation.
  static ToggleTrace replay(const netlist::Netlist& nl, int num_cycles,
                            std::vector<std::uint8_t> levels);

 private:
  std::uint8_t at(int cycle, netlist::NetId net) const {
    return data_[static_cast<std::size_t>(cycle) * num_nets_ + net];
  }

  std::size_t num_nets_ = 0;
  int num_cycles_ = 0;
  std::vector<std::uint8_t> data_;  // bit0 value, bits1.. transition count
};

/// The clock root and every net reached through CK cells, classified in one
/// pass over the topological order (`topo`); simulation and replay share it.
class ClockNetwork {
 public:
  ClockNetwork(const netlist::Netlist& nl,
               const std::vector<netlist::CellInstId>& topo);

  const std::vector<bool>& mask() const { return is_clock_net_; }
  /// First clock cell whose input is not a clock net, or kNoCell.
  netlist::CellInstId misfed_cell() const { return misfed_cell_; }

  /// Writes this cycle's activity into `active[net]` for every clock net.
  /// ICGs gate on their enable in `prev_levels` (the previous cycle's
  /// levels); with nullptr every ICG passes the clock.
  void activity(const std::uint8_t* prev_levels,
                std::vector<std::uint8_t>& active) const;

  /// Records `cycle` of `trace`: clock nets from `active` (two transitions
  /// when active), which also sets their `levels`; data nets at `levels`,
  /// with a transition where `prev_levels` (none when nullptr) differs.
  void record(ToggleTrace& trace, int cycle, std::uint8_t* levels,
              const std::uint8_t* prev_levels,
              const std::vector<std::uint8_t>& active) const;

 private:
  struct Step {
    netlist::NetId in, en, out;  // en == kNoNet for buffers/inverters
  };
  netlist::NetId root_;
  std::vector<Step> steps_;  // clock cells, topo order
  std::vector<bool> is_clock_net_;
  netlist::CellInstId misfed_cell_ = netlist::kNoCell;
};

class CycleSimulator {
 public:
  /// Precomputes topological order and clock-network structure.
  /// Throws if the netlist fails structural checks relevant to simulation
  /// (a clock cell fed by a non-clock net, a macro wider than 16 bits).
  explicit CycleSimulator(const netlist::Netlist& nl);

  /// Simulate `num_cycles` cycles driven by `stim`. Each run starts from
  /// reset state with zeroed SRAM contents, so repeated runs on one
  /// simulator are independent of each other.
  ToggleTrace run(StimulusGenerator& stim, int num_cycles);

  /// Nets classified as part of the clock network (incl. the clock root).
  const std::vector<bool>& clock_net_mask() const { return clock_.mask(); }

 private:
  struct SeqCell {
    netlist::CellInstId cell;
    netlist::NetId d, ck, rn, q;
    bool resettable;
    bool is_latch;
  };
  struct MacroCell {
    netlist::CellInstId cell;
    netlist::NetId clk, csb, web;
    std::vector<netlist::NetId> addr, din, dout;
    std::vector<std::uint16_t> mem;  // 2^addr_bits words of data_bits<=16
  };

  const netlist::Netlist& nl_;
  std::vector<netlist::CellInstId> comb_order_;  // data cells, topo order
  ClockNetwork clock_;                           // built from comb_order_
  std::vector<SeqCell> seq_cells_;
  std::vector<MacroCell> macros_;
};

}  // namespace atlas::sim
