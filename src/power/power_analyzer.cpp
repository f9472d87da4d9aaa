#include "power/power_analyzer.h"

#include <stdexcept>

#include "layout/extraction.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace atlas::power {

using liberty::CellFunc;
using liberty::PowerGroup;
using netlist::CellInstId;
using netlist::kNoNet;
using netlist::NetId;

// Grain for cycle-indexed parallel loops: one cycle is O(num_cells) work,
// so a handful of cycles per chunk amortizes dispatch while leaving enough
// chunks to fill a pool on 300-cycle traces.
constexpr std::size_t kCyclesPerChunk = 4;

void GroupPower::add(PowerGroup g, double uw) {
  switch (g) {
    case PowerGroup::kComb: comb += uw; return;
    case PowerGroup::kRegister: reg += uw; return;
    case PowerGroup::kClockTree: clock += uw; return;
    case PowerGroup::kMemory: memory += uw; return;
  }
  throw std::logic_error("GroupPower::add: unhandled group");
}

GroupPower& GroupPower::operator+=(const GroupPower& o) {
  comb += o.comb;
  reg += o.reg;
  clock += o.clock;
  memory += o.memory;
  return *this;
}

PowerResult::PowerResult(int num_cycles, std::size_t num_submodules)
    : num_cycles_(num_cycles), num_submodules_(num_submodules),
      design_(static_cast<std::size_t>(num_cycles)),
      submodule_(static_cast<std::size_t>(num_cycles) * num_submodules) {}

const GroupPower& PowerResult::submodule(int cycle, netlist::SubmoduleId sm) const {
  return submodule_.at(static_cast<std::size_t>(cycle) * num_submodules_ +
                       static_cast<std::size_t>(sm));
}

GroupPower& PowerResult::mutable_submodule(int cycle, netlist::SubmoduleId sm) {
  return submodule_.at(static_cast<std::size_t>(cycle) * num_submodules_ +
                       static_cast<std::size_t>(sm));
}

GroupPower PowerResult::average_design() const {
  // Ordered tree reduction: deterministic for every thread count (chunk
  // layout and combine order depend only on the cycle count).
  GroupPower avg = util::parallel_reduce(
      design_.size(), kCyclesPerChunk, GroupPower{},
      [this](std::size_t begin, std::size_t end) {
        GroupPower partial;
        for (std::size_t c = begin; c < end; ++c) partial += design_[c];
        return partial;
      },
      [](GroupPower a, const GroupPower& b) {
        a += b;
        return a;
      });
  if (num_cycles_ > 0) {
    const double inv = 1.0 / num_cycles_;
    avg.comb *= inv;
    avg.reg *= inv;
    avg.clock *= inv;
    avg.memory *= inv;
  }
  return avg;
}

std::vector<GroupPower> PowerResult::average_submodules() const {
  std::vector<GroupPower> avg(num_submodules_);
  for (int c = 0; c < num_cycles_; ++c) {
    for (std::size_t sm = 0; sm < num_submodules_; ++sm) {
      avg[sm] += submodule(c, static_cast<netlist::SubmoduleId>(sm));
    }
  }
  if (num_cycles_ > 0) {
    for (GroupPower& g : avg) {
      const double inv = 1.0 / num_cycles_;
      g.comb *= inv;
      g.reg *= inv;
      g.clock *= inv;
      g.memory *= inv;
    }
  }
  return avg;
}

namespace {

/// Static per-cell data hoisted out of the cycle loop.
struct CellPlan {
  PowerGroup group = PowerGroup::kComb;
  netlist::SubmoduleId submodule = netlist::kNoSubmodule;
  NetId out_net = kNoNet;
  double internal_fj = 0.0;     // per output transition, at actual load
  double switching_fj = 0.0;    // per output transition (0.5 C V^2)
  double clock_pin_fj = 0.0;    // per clock-pin transition
  NetId clock_pin_net = kNoNet;
  double leakage_uw = 0.0;
  // Macro-specific.
  bool is_macro = false;
  NetId csb = kNoNet, web = kNoNet;
  double read_fj = 0.0, write_fj = 0.0;
};

}  // namespace

PowerResult analyze_power(const netlist::Netlist& nl,
                          const sim::ToggleTrace& trace,
                          const PowerConfig& config) {
  if (trace.num_nets() != nl.num_nets()) {
    throw std::invalid_argument("analyze_power: trace/netlist net count mismatch");
  }
  obs::ObsSpan span("power", "analyze_power");
  {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter* analyses = &reg.counter("atlas_power_analyses_total");
    static obs::Counter* cycles = &reg.counter("atlas_power_cycles_total");
    analyses->inc();
    cycles->inc(static_cast<std::uint64_t>(
        trace.num_cycles() < 0 ? 0 : trace.num_cycles()));
  }
  const liberty::Library& lib = nl.library();
  const double period_ns = lib.clock_period_ns();

  std::vector<CellPlan> plans(nl.num_cells());
  for (CellInstId id = 0; id < nl.num_cells(); ++id) {
    const liberty::Cell& lc = nl.lib_cell(id);
    CellPlan& p = plans[id];
    p.group = liberty::power_group_of(lc.type);
    p.submodule = nl.cell(id).submodule;
    p.leakage_uw = config.include_leakage ? lc.leakage_uw : 0.0;
    p.out_net = nl.output_net(id);
    if (p.out_net != kNoNet && !liberty::is_macro(lc.func)) {
      const double load = layout::net_load_ff(nl, p.out_net);
      p.internal_fj = lib.internal_energy_fj(nl.cell(id).lib_cell, load);
      p.switching_fj = lib.switching_energy_fj(load);
    }
    // Clock-pin energy applies to sequential cells, clock gates and macros.
    if (lc.clock_pin_energy_fj > 0.0) {
      for (std::size_t pin = 0; pin < lc.pins.size(); ++pin) {
        if (lc.pins[pin].is_clock) {
          p.clock_pin_net = nl.cell(id).pin_nets[pin];
          // Library value is per edge == per transition of the clock net.
          p.clock_pin_fj = lc.clock_pin_energy_fj;
          break;
        }
      }
    }
    if (liberty::is_macro(lc.func)) {
      p.is_macro = true;
      p.csb = nl.cell(id).pin_nets[1];
      p.web = nl.cell(id).pin_nets[2];
      p.read_fj = lc.read_energy_fj;
      p.write_fj = lc.write_energy_fj;
    }
  }

  // Per-cycle accumulation: cycles are independent, so the cycle loop
  // parallelizes with no reduction — each cycle's output is produced by
  // exactly the serial inner loop, hence bit-identical at any thread count.
  PowerResult result(trace.num_cycles(), nl.submodules().size());
  util::parallel_for(static_cast<std::size_t>(trace.num_cycles()),
                     kCyclesPerChunk, [&](std::size_t cycle) {
    const int c = static_cast<int>(cycle);
    GroupPower& design = result.mutable_design(c);
    for (CellInstId id = 0; id < nl.num_cells(); ++id) {
      const CellPlan& p = plans[id];
      double energy_fj = 0.0;
      if (p.out_net != kNoNet && !p.is_macro) {
        const int tr = trace.transitions(c, p.out_net);
        if (tr > 0) energy_fj += tr * (p.internal_fj + p.switching_fj);
      }
      if (p.clock_pin_net != kNoNet) {
        const int ck_tr = trace.transitions(c, p.clock_pin_net);
        if (ck_tr > 0) energy_fj += ck_tr * p.clock_pin_fj;
      }
      if (p.is_macro) {
        // Access decode: chip-select low = active; WEB low = write.
        if (!trace.value(c, p.csb)) {
          energy_fj += trace.value(c, p.web) ? p.read_fj : p.write_fj;
        }
        // Macro output switching: lump sink-pin + wire loads of Q nets.
        // (Small next to access energy; covered by access energy here.)
      }
      const double uw = energy_fj / period_ns + p.leakage_uw;
      design.add(p.group, uw);
      if (p.submodule != netlist::kNoSubmodule) {
        result.mutable_submodule(c, p.submodule).add(p.group, uw);
      }
    }
  });
  return result;
}

}  // namespace atlas::power
