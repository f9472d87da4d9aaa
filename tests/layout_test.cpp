#include <gtest/gtest.h>

#include <unordered_map>

#include "designgen/design_generator.h"
#include "layout/layout_flow.h"
#include "liberty/library.h"
#include "sim/simulator.h"

namespace atlas::layout {
namespace {

using liberty::NodeType;
using netlist::NetId;
using netlist::Netlist;

class LayoutTest : public ::testing::Test {
 protected:
  LayoutTest()
      : lib_(liberty::make_default_library()),
        gate_(designgen::generate_design(designgen::paper_design_spec(1, 0.003),
                                         lib_)),
        result_(run_layout(gate_)) {}

  liberty::Library lib_;
  Netlist gate_;
  LayoutResult result_;
};

TEST_F(LayoutTest, PlacementCoversAllCells) {
  const Placement pl = place(gate_);
  EXPECT_EQ(pl.size(), gate_.num_cells());
  EXPECT_GT(pl.die_size_um, 10.0);
  for (netlist::CellInstId id = 0; id < gate_.num_cells(); ++id) {
    const Point& p = pl.of(id);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, pl.die_size_um);
    EXPECT_GE(p.y, 0.0);
  }
}

TEST_F(LayoutTest, PlacementKeepsSubmodulesLocal) {
  const Placement pl = place(gate_);
  // Average intra-sub-module net HPWL must be well below the die size.
  double intra = 0.0;
  int count = 0;
  for (NetId n = 0; n < gate_.num_nets(); ++n) {
    const auto& net = gate_.net(n);
    if (!net.has_driver() || net.sinks.empty()) continue;
    const auto sm = gate_.cell(net.driver.cell).submodule;
    bool local = true;
    for (const auto& s : net.sinks) local = local && gate_.cell(s.cell).submodule == sm;
    if (!local) continue;
    intra += pl.net_hpwl(gate_, n);
    ++count;
  }
  ASSERT_GT(count, 100);
  EXPECT_LT(intra / count, pl.die_size_um * 0.4);
}

TEST_F(LayoutTest, ExtractionScalesWithWirelength) {
  const Placement pl = place(gate_);
  const Parasitics par = extract(gate_, pl);
  ASSERT_EQ(par.wire_cap_ff.size(), gate_.num_nets());
  // Caps nonnegative and correlated with HPWL.
  for (NetId n = 0; n < gate_.num_nets(); ++n) {
    EXPECT_GE(par.wire_cap_ff[n], 0.0);
  }
  const NetId clk = gate_.clock_net();
  // Pre-CTS clock net spans the die: it must be among the largest caps.
  double max_cap = 0.0;
  for (const double c : par.wire_cap_ff) max_cap = std::max(max_cap, c);
  EXPECT_GT(max_cap, 0.0);
  EXPECT_NEAR(par.wire_cap_ff[clk], max_cap, max_cap * 0.5);
}

TEST_F(LayoutTest, SpefRoundTrip) {
  const Placement pl = place(gate_);
  const Parasitics par = extract(gate_, pl);
  const std::string text = write_spef(gate_, par);
  const Parasitics back = parse_spef(text, gate_);
  ASSERT_EQ(back.wire_cap_ff.size(), par.wire_cap_ff.size());
  for (NetId n = 0; n < gate_.num_nets(); ++n) {
    EXPECT_NEAR(back.wire_cap_ff[n], par.wire_cap_ff[n], 1e-4);
  }
}

TEST_F(LayoutTest, SpefParseErrors) {
  EXPECT_THROW(parse_spef("", gate_), std::runtime_error);
  EXPECT_THROW(parse_spef("*SPEF \"x\"\n*D_NET *1 0.5\n", gate_),
               std::runtime_error);  // name map missing
  // A *D_NET cap must be one whole finite number.
  const std::string head = "*SPEF \"x\"\n*NAME_MAP\n*1 " + gate_.net(0).name +
                           "\n*D_NET *1 ";
  EXPECT_NO_THROW(parse_spef(head + "0.5\n", gate_));
  for (const char* cap : {"0.5abc", "nan", "inf", "x", "1e999"}) {
    EXPECT_THROW(parse_spef(head + cap + "\n", gate_), std::runtime_error)
        << cap;
  }
}

TEST_F(LayoutTest, FlowProducesValidNetlist) {
  EXPECT_NO_THROW(result_.netlist.check());
  EXPECT_EQ(result_.placement.size(), result_.netlist.num_cells());
  EXPECT_EQ(result_.parasitics.wire_cap_ff.size(), result_.netlist.num_nets());
}

TEST_F(LayoutTest, CellCountGrowsLikePaperTable2) {
  // Paper Table II: post-layout cell count exceeds gate-level by ~4-7%.
  EXPECT_GT(result_.netlist.num_cells(), gate_.num_cells());
  const double growth = static_cast<double>(result_.netlist.num_cells()) /
                        static_cast<double>(gate_.num_cells());
  EXPECT_LT(growth, 1.35) << "growth should stay moderate";
}

TEST_F(LayoutTest, ClockTreeExists) {
  const auto by_type = result_.netlist.count_by_type();
  EXPECT_GT(by_type[static_cast<std::size_t>(NodeType::kCk)], 5u);
  EXPECT_GT(result_.cts_stats.clock_buffers, 0);
  EXPECT_GT(result_.cts_stats.tree_levels, 0);
  EXPECT_GT(result_.cts_stats.icgs, 0);
  EXPECT_GT(result_.cts_stats.gated_registers,
            3 * result_.cts_stats.icgs - 1);
}

TEST_F(LayoutTest, TimingOptimizationActuallyFired) {
  EXPECT_GT(result_.timing_stats.resized + result_.timing_stats.buffers_inserted, 0);
}

TEST_F(LayoutTest, NoOverloadedDriversRemain) {
  const Netlist& nl = result_.netlist;
  int overloaded = 0;
  for (netlist::CellInstId id = 0; id < nl.num_cells(); ++id) {
    const auto& lc = nl.lib_cell(id);
    const int out_pin = lc.output_pin();
    if (out_pin < 0) continue;
    const NetId out = nl.cell(id).pin_nets[static_cast<std::size_t>(out_pin)];
    if (out == nl.clock_net()) continue;
    const double load = net_load_ff(nl, out);
    const double limit = lc.pins[static_cast<std::size_t>(out_pin)].max_cap_ff;
    // Clock buffers drive clock nets with their own budget.
    if (liberty::is_clock_cell(lc.func)) continue;
    if (load > limit * 1.05) ++overloaded;
  }
  // A handful of stragglers is acceptable (macro pins etc.), not a pattern.
  EXPECT_LT(overloaded, static_cast<int>(nl.num_cells() / 100));
}

TEST_F(LayoutTest, RegistersPreserved) {
  using liberty::PowerGroup;
  const auto a = gate_.count_by_group();
  const auto b = result_.netlist.count_by_group();
  EXPECT_EQ(b[static_cast<std::size_t>(PowerGroup::kRegister)],
            a[static_cast<std::size_t>(PowerGroup::kRegister)]);
  EXPECT_EQ(b[static_cast<std::size_t>(PowerGroup::kMemory)],
            a[static_cast<std::size_t>(PowerGroup::kMemory)]);
}

TEST_F(LayoutTest, WireCapsAnnotated) {
  double annotated = 0.0;
  for (NetId n = 0; n < result_.netlist.num_nets(); ++n) {
    annotated += result_.netlist.net(n).wire_cap_ff;
  }
  EXPECT_GT(annotated, 0.0);
  // Gate-level netlist carries no annotation.
  for (NetId n = 0; n < gate_.num_nets(); ++n) {
    EXPECT_EQ(gate_.net(n).wire_cap_ff, 0.0);
  }
}

/// Central cross-stage property: N_p is functionally equivalent to N_g
/// (timing optimization inserts buffers; CTS converts enable-mux registers
/// to ICGs with identical cycle semantics).
TEST_F(LayoutTest, PostLayoutFunctionallyEquivalent) {
  const Netlist& post = result_.netlist;
  sim::CycleSimulator sim_g(gate_);
  sim::CycleSimulator sim_p(post);
  sim::StimulusGenerator stim_g(gate_, sim::make_w1());
  sim::StimulusGenerator stim_p(post, sim::make_w1());
  const int cycles = 40;
  const sim::ToggleTrace tg = sim_g.run(stim_g, cycles);
  const sim::ToggleTrace tp = sim_p.run(stim_p, cycles);

  std::unordered_map<std::string, NetId> post_by_name;
  for (NetId n = 0; n < post.num_nets(); ++n) {
    post_by_name.emplace(post.net(n).name, n);
  }
  // Compare all register outputs (every DFF Q net name survives layout).
  std::size_t compared = 0;
  for (netlist::CellInstId id = 0; id < gate_.num_cells(); ++id) {
    if (!liberty::is_sequential(gate_.lib_cell(id).func)) continue;
    const NetId q = gate_.output_net(id);
    const auto it = post_by_name.find(gate_.net(q).name);
    ASSERT_NE(it, post_by_name.end()) << gate_.net(q).name;
    for (int c = 0; c < cycles; ++c) {
      ASSERT_EQ(tg.value(c, q), tp.value(c, it->second))
          << "register " << gate_.net(q).name << " cycle " << c;
    }
    ++compared;
  }
  EXPECT_GT(compared, 100u);
}

TEST_F(LayoutTest, DeterministicFlow) {
  const LayoutResult again = run_layout(gate_);
  ASSERT_EQ(again.netlist.num_cells(), result_.netlist.num_cells());
  ASSERT_EQ(again.netlist.num_nets(), result_.netlist.num_nets());
  for (NetId n = 0; n < again.netlist.num_nets(); ++n) {
    ASSERT_DOUBLE_EQ(again.netlist.net(n).wire_cap_ff,
                     result_.netlist.net(n).wire_cap_ff);
  }
}

}  // namespace
}  // namespace atlas::layout
