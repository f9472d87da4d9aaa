#include "sim/simulator.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace atlas::sim {

using liberty::CellFunc;
using netlist::CellInstId;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::NetId;

ToggleTrace::ToggleTrace(std::size_t num_nets, int num_cycles)
    : num_nets_(num_nets), num_cycles_(num_cycles),
      data_(num_nets * static_cast<std::size_t>(num_cycles), 0) {}

void ToggleTrace::set(int cycle, NetId net, bool value, int transitions) {
  data_[static_cast<std::size_t>(cycle) * num_nets_ + net] =
      static_cast<std::uint8_t>((transitions << 1) | (value ? 1 : 0));
}

double ToggleTrace::toggle_rate(NetId net) const {
  if (num_cycles_ == 0) return 0.0;
  return static_cast<double>(total_transitions(net)) / num_cycles_;
}

long long ToggleTrace::total_transitions(NetId net) const {
  // Integer sum via the ordered reduction — exact under any association,
  // the helper only buys wall-clock on very long traces (grain keeps short
  // traces on the serial single-chunk path).
  return util::parallel_reduce(
      static_cast<std::size_t>(num_cycles_), std::size_t{4096}, 0LL,
      [this, net](std::size_t begin, std::size_t end) {
        long long partial = 0;
        for (std::size_t c = begin; c < end; ++c) {
          partial += transitions(static_cast<int>(c), net);
        }
        return partial;
      },
      [](long long a, long long b) { return a + b; });
}

ToggleTrace ToggleTrace::replay(const netlist::Netlist& nl, int num_cycles,
                                std::vector<std::uint8_t> levels) {
  const ClockNetwork clocks(nl, nl.comb_topo_order());
  const std::size_t n_nets = nl.num_nets();
  ToggleTrace trace(n_nets, 0);
  trace.num_cycles_ = num_cycles;
  trace.data_ = std::move(levels);
  std::vector<std::uint8_t> active(n_nets, 0);
  // Rows are rewritten last to first, so row c - 1 still holds the decoded
  // levels that row c's data transitions and ICG enables read.
  for (int c = num_cycles - 1; c >= 0; --c) {
    std::uint8_t* row =
        trace.data_.data() + static_cast<std::size_t>(c) * n_nets;
    const std::uint8_t* prev = c > 0 ? row - n_nets : nullptr;
    clocks.activity(prev, active);
    clocks.record(trace, c, row, prev, active);
  }
  return trace;
}

ClockNetwork::ClockNetwork(const netlist::Netlist& nl,
                           const std::vector<CellInstId>& topo)
    : root_(nl.clock_net()), is_clock_net_(nl.num_nets(), false) {
  if (root_ != kNoNet) is_clock_net_[root_] = true;
  // Clock cells appear in topo order, so a single pass classifies the whole
  // clock network (each CK cell's input is produced before it).
  for (const CellInstId id : topo) {
    const liberty::Cell& lc = nl.lib_cell(id);
    if (!liberty::is_clock_cell(lc.func)) continue;
    const auto& pins = nl.cell(id).pin_nets;
    const Step step{pins[0], lc.func == CellFunc::kCkGate ? pins[1] : kNoNet,
                    nl.output_net(id)};
    if (!is_clock_net_[step.in] && misfed_cell_ == kNoCell) misfed_cell_ = id;
    is_clock_net_[step.out] = true;
    steps_.push_back(step);
  }
}

void ClockNetwork::activity(const std::uint8_t* prev_levels,
                            std::vector<std::uint8_t>& active) const {
  if (root_ != kNoNet) active[root_] = 1;
  for (const Step& step : steps_) {
    std::uint8_t act = active[step.in];
    if (step.en != kNoNet && prev_levels != nullptr) {
      act = act && prev_levels[step.en];
    }
    active[step.out] = act;
  }
}

void ClockNetwork::record(ToggleTrace& trace, int cycle, std::uint8_t* levels,
                          const std::uint8_t* prev_levels,
                          const std::vector<std::uint8_t>& active) const {
  // Nets are independent (each writes its own trace byte and level), so the
  // record parallelizes bit-identically to the serial loop.
  util::parallel_for_chunks(is_clock_net_.size(), std::size_t{8192},
                            [&](std::size_t begin, std::size_t end) {
    for (NetId n = static_cast<NetId>(begin); n < static_cast<NetId>(end);
         ++n) {
      if (is_clock_net_[n]) {
        levels[n] = active[n];
        trace.set(cycle, n, active[n] != 0, active[n] ? 2 : 0);
      } else {
        const bool changed =
            prev_levels != nullptr && levels[n] != prev_levels[n];
        trace.set(cycle, n, levels[n] != 0, changed ? 1 : 0);
      }
    }
  });
}

CycleSimulator::CycleSimulator(const netlist::Netlist& nl)
    : nl_(nl), comb_order_(nl.comb_topo_order()), clock_(nl, comb_order_) {
  if (const CellInstId bad = clock_.misfed_cell(); bad != kNoCell) {
    throw std::runtime_error("simulator: clock cell " + nl.cell(bad).name +
                             " fed by non-clock net " +
                             nl.net(nl.cell(bad).pin_nets[0]).name);
  }
  std::erase_if(comb_order_, [&nl](CellInstId id) {
    return liberty::is_clock_cell(nl.lib_cell(id).func);
  });

  for (CellInstId id = 0; id < nl.num_cells(); ++id) {
    const liberty::Cell& lc = nl.lib_cell(id);
    const auto& pins = nl.cell(id).pin_nets;
    if (liberty::is_sequential(lc.func)) {
      SeqCell s;
      s.cell = id;
      s.d = pins[0];
      s.ck = pins[1];
      s.resettable = lc.func == CellFunc::kDffR;
      s.is_latch = lc.func == CellFunc::kLatch;
      s.rn = s.resettable ? pins[2] : kNoNet;
      s.q = pins[s.resettable ? 3 : 2];
      seq_cells_.push_back(s);
    } else if (liberty::is_macro(lc.func)) {
      MacroCell m;
      m.cell = id;
      m.clk = pins[0];
      m.csb = pins[1];
      m.web = pins[2];
      std::size_t p = 3;
      // Pin layout: A0..A{na-1}, D0..D{nd-1}, Q0..Q{nd-1} (library convention).
      const std::size_t rest = lc.pins.size() - 3;
      const std::size_t nd = [&lc] {
        std::size_t outs = 0;
        for (const auto& pin : lc.pins) outs += pin.dir == liberty::PinDir::kOutput;
        return outs;
      }();
      const std::size_t na = rest - 2 * nd;
      for (std::size_t i = 0; i < na; ++i) m.addr.push_back(pins[p++]);
      for (std::size_t i = 0; i < nd; ++i) m.din.push_back(pins[p++]);
      for (std::size_t i = 0; i < nd; ++i) m.dout.push_back(pins[p++]);
      if (nd > 16) throw std::runtime_error("simulator: macro wider than 16 bits");
      macros_.push_back(std::move(m));
    }
  }
}

ToggleTrace CycleSimulator::run(StimulusGenerator& stim, int num_cycles) {
  obs::ObsSpan span("sim", "simulate");
  {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter* runs = &reg.counter("atlas_sim_runs_total");
    static obs::Counter* cycles = &reg.counter("atlas_sim_cycles_total");
    runs->inc();
    cycles->inc(static_cast<std::uint64_t>(num_cycles < 0 ? 0 : num_cycles));
  }
  // Every run starts from zeroed SRAM contents, so a simulator can be
  // reused without one run's writes leaking into the next.
  for (MacroCell& m : macros_) m.mem.assign(std::size_t{1} << m.addr.size(), 0);
  const std::size_t n_nets = nl_.num_nets();
  std::vector<std::uint8_t> prev(n_nets, 0);  // values at end of previous cycle
  std::vector<std::uint8_t> cur(n_nets, 0);
  std::vector<std::uint8_t> clock_active(n_nets, 0);

  auto eval_cell = [&](CellInstId id, std::vector<std::uint8_t>& vals) {
    const liberty::Cell& lc = nl_.lib_cell(id);
    const auto& pins = nl_.cell(id).pin_nets;
    bool in[3];
    const int n_in = liberty::comb_input_count(lc.func);
    for (int i = 0; i < n_in; ++i) in[i] = vals[pins[static_cast<std::size_t>(i)]] != 0;
    const int out_pin = lc.output_pin();
    vals[pins[static_cast<std::size_t>(out_pin)]] =
        liberty::eval_comb(lc.func, in, n_in) ? 1 : 0;
  };

  // Settle pass ("cycle -1"): reset asserted, registers at zero, combinational
  // values consistent. Not recorded in the trace.
  {
    std::vector<std::uint8_t> scratch(n_nets, 0);
    StimulusGenerator settle_stim(stim);  // copy: do not consume real stream
    settle_stim.apply(0, scratch);
    for (const CellInstId id : comb_order_) eval_cell(id, scratch);
    prev = scratch;
  }

  ToggleTrace trace(n_nets, num_cycles);
  for (int cycle = 0; cycle < num_cycles; ++cycle) {
    cur = prev;

    // 1. Clock activity for this cycle (ICG enables sampled from prev cycle).
    clock_.activity(prev.data(), clock_active);

    // 2. Sequential elements capture previous-cycle D on active edges.
    for (const SeqCell& s : seq_cells_) {
      const bool clocked =
          clock_net_mask()[s.ck] ? clock_active[s.ck] != 0 : prev[s.ck] != 0;
      if (!clocked) continue;
      std::uint8_t q = prev[s.d];
      if (s.resettable && prev[s.rn] == 0) q = 0;
      cur[s.q] = q;
    }

    // 3. Macros: synchronous 1RW port.
    for (MacroCell& m : macros_) {
      const bool clocked =
          clock_net_mask()[m.clk] ? clock_active[m.clk] != 0 : prev[m.clk] != 0;
      if (!clocked || prev[m.csb] != 0) continue;  // CSB active low
      std::size_t addr = 0;
      for (std::size_t i = 0; i < m.addr.size(); ++i) {
        addr |= static_cast<std::size_t>(prev[m.addr[i]] != 0) << i;
      }
      if (prev[m.web] == 0) {  // write
        std::uint16_t word = 0;
        for (std::size_t i = 0; i < m.din.size(); ++i) {
          word |= static_cast<std::uint16_t>((prev[m.din[i]] != 0) << i);
        }
        m.mem[addr] = word;
      } else {  // read
        const std::uint16_t word = m.mem[addr];
        for (std::size_t i = 0; i < m.dout.size(); ++i) {
          cur[m.dout[i]] = (word >> i) & 1;
        }
      }
    }

    // 4. New primary-input values.
    stim.apply(cycle, cur);

    // 5. Combinational propagation.
    for (const CellInstId id : comb_order_) eval_cell(id, cur);

    // 6. Record values and transition counts.
    clock_.record(trace, cycle, cur.data(), prev.data(), clock_active);
    prev.swap(cur);
  }
  return trace;
}

}  // namespace atlas::sim
