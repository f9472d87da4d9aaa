#include <gtest/gtest.h>

#include <set>

#include "designgen/block_builder.h"
#include "designgen/blocks.h"
#include "designgen/design_generator.h"
#include "liberty/library.h"
#include "netlist/verilog_io.h"
#include "sim/simulator.h"

namespace atlas::designgen {
namespace {

using liberty::CellFunc;
using liberty::NodeType;
using netlist::NetId;
using netlist::Netlist;

class BlockTest : public ::testing::Test {
 protected:
  BlockTest()
      : lib_(liberty::make_default_library()), nl_("t", lib_), rng_(7) {
    clk_ = nl_.add_net("clk");
    nl_.mark_primary_input(clk_);
    nl_.set_clock_net(clk_);
    rstn_ = nl_.add_net("rstn");
    nl_.mark_primary_input(rstn_);
    for (int i = 0; i < 24; ++i) {
      const NetId pi = nl_.add_net("pi_" + std::to_string(i));
      nl_.mark_primary_input(pi);
      inputs_.push_back(pi);
    }
    comp_ = nl_.add_component("c");
  }

  BlockBuilder make_builder(const std::string& role) {
    const auto sm = nl_.add_submodule(role + "_0", role, comp_);
    return BlockBuilder(nl_, sm, clk_, rstn_, rng_);
  }

  /// True if `net` is driven by a sequential cell's Q pin.
  bool is_registered(NetId net) const {
    const auto& n = nl_.net(net);
    if (!n.has_driver()) return false;
    return liberty::is_sequential(nl_.lib_cell(n.driver.cell).func);
  }

  liberty::Library lib_;
  Netlist nl_;
  util::Rng rng_;
  NetId clk_{}, rstn_{};
  NetVec inputs_;
  int comp_{};
};

class BlockRoleTest : public BlockTest,
                      public ::testing::WithParamInterface<std::string> {};

TEST_P(BlockRoleTest, ProducesValidRegisteredOutputs) {
  const std::string role = GetParam();
  BlockBuilder b = make_builder(role);
  const NetVec outs = build_block(role, b, inputs_, 12);
  EXPECT_FALSE(outs.empty());
  for (const NetId o : outs) {
    EXPECT_TRUE(is_registered(o)) << role << " output must be a register Q";
  }
  EXPECT_NO_THROW(nl_.check());
  EXPECT_GT(nl_.num_cells(), 4u);
}

TEST_P(BlockRoleTest, SimulatesWithoutError) {
  const std::string role = GetParam();
  BlockBuilder b = make_builder(role);
  build_block(role, b, inputs_, 8);
  sim::CycleSimulator sim(nl_);
  sim::StimulusGenerator stim(nl_, sim::make_w1());
  const sim::ToggleTrace t = sim.run(stim, 30);
  // Some net inside the block must toggle under a random workload.
  long long total = 0;
  for (NetId n = 0; n < nl_.num_nets(); ++n) total += t.total_transitions(n);
  EXPECT_GT(total, 0) << role;
}

INSTANTIATE_TEST_SUITE_P(
    AllRoles, BlockRoleTest,
    ::testing::Values("adder", "alu", "decoder", "mux_tree", "comparator",
                      "counter", "shift_reg", "lfsr", "fsm", "parity",
                      "priority_enc", "regfile", "fifo_ctrl", "pipeline_reg",
                      "mem_ctrl", "multiplier_slice"),
    [](const auto& info) { return info.param; });

TEST_F(BlockTest, UnknownRoleThrows) {
  BlockBuilder b = make_builder("x");
  EXPECT_THROW(build_block("warp_core", b, inputs_, 8), std::invalid_argument);
}

TEST_F(BlockTest, EmptyInputPoolThrows) {
  BlockBuilder b = make_builder("adder");
  EXPECT_THROW(build_adder(b, {}, 8), std::invalid_argument);
}

TEST_F(BlockTest, AdderComputesCorrectSum) {
  // 4-bit adder from TIE constants: 0b0101 + 0b0011 = 0b1000.
  BlockBuilder b = make_builder("adder");
  const NetId hi = b.tie(true);
  const NetId lo = b.tie(false);
  // a = 0101 (LSB first: 1,0,1,0), c = 0011 (1,1,0,0).
  const NetVec in = {hi, lo, hi, lo, hi, hi, lo, lo};
  const NetVec outs = build_adder(b, in, 4);
  ASSERT_EQ(outs.size(), 5u);  // 4 sum bits + carry
  sim::CycleSimulator sim(nl_);
  sim::StimulusGenerator stim(nl_, sim::make_w1());
  const sim::ToggleTrace t = sim.run(stim, 6);
  // After the input regs (1 cycle) and output regs (1 more), results settle.
  const int c = 5;
  EXPECT_FALSE(t.value(c, outs[0]));
  EXPECT_FALSE(t.value(c, outs[1]));
  EXPECT_FALSE(t.value(c, outs[2]));
  EXPECT_TRUE(t.value(c, outs[3]));
  EXPECT_FALSE(t.value(c, outs[4]));
}

TEST_F(BlockTest, EnableMuxRegisterIdiom) {
  BlockBuilder b = make_builder("pipeline_reg");
  build_pipeline_reg(b, inputs_, 8);
  // The block must contain MUX2 cells feeding DFF D pins from their own Q
  // (the recirculating-mux idiom CTS later converts to clock gates).
  int recirculating = 0;
  for (netlist::CellInstId id = 0; id < nl_.num_cells(); ++id) {
    if (nl_.lib_cell(id).func != CellFunc::kDff) continue;
    const NetId d = nl_.cell(id).pin_nets[0];
    const auto& dn = nl_.net(d);
    if (!dn.has_driver()) continue;
    const auto& drv = nl_.lib_cell(dn.driver.cell);
    if (drv.func != CellFunc::kMux2) continue;
    const NetId mux_a = nl_.cell(dn.driver.cell).pin_nets[0];
    if (mux_a == nl_.output_net(id)) ++recirculating;
  }
  EXPECT_GE(recirculating, 8);
}

TEST_F(BlockTest, MemCtrlInstantiatesSram) {
  BlockBuilder b = make_builder("mem_ctrl");
  build_mem_ctrl(b, inputs_, 8);
  const auto by_type = nl_.count_by_type();
  EXPECT_EQ(by_type[static_cast<std::size_t>(NodeType::kMacro)], 1u);
}

TEST(DesignSpec, PaperSpecsScaleWithPaperSizes) {
  std::vector<DesignSpec> specs;
  for (int i = 1; i <= 6; ++i) specs.push_back(paper_design_spec(i, 0.01));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(specs[static_cast<std::size_t>(i)].name, "C" + std::to_string(i + 1));
    EXPECT_NEAR(static_cast<double>(specs[static_cast<std::size_t>(i)].target_cells),
                static_cast<double>(kPaperGateCells[i]) * 0.01, 1.0);
  }
  // Strictly increasing sizes, like the paper's C1 < ... < C6.
  for (int i = 1; i < 6; ++i) {
    EXPECT_GT(specs[static_cast<std::size_t>(i)].target_cells,
              specs[static_cast<std::size_t>(i - 1)].target_cells);
  }
  EXPECT_THROW(paper_design_spec(0), std::invalid_argument);
  EXPECT_THROW(paper_design_spec(7), std::invalid_argument);
}

class GeneratedDesignTest : public ::testing::Test {
 protected:
  GeneratedDesignTest()
      : lib_(liberty::make_default_library()),
        nl_(generate_design(paper_design_spec(2, 0.004), lib_)) {}
  liberty::Library lib_;
  Netlist nl_;
};

TEST_F(GeneratedDesignTest, MeetsTargetSize) {
  const auto spec = paper_design_spec(2, 0.004);
  EXPECT_GE(nl_.num_cells(), spec.target_cells);
  EXPECT_LT(nl_.num_cells(), spec.target_cells * 13 / 10);
}

TEST_F(GeneratedDesignTest, StructurallyValid) { EXPECT_NO_THROW(nl_.check()); }

TEST_F(GeneratedDesignTest, NoClockCellsAtGateLevel) {
  // Paper: the clock network exists only post-layout; Gate-Level PTPX sees
  // zero clock-tree power.
  const auto by_type = nl_.count_by_type();
  EXPECT_EQ(by_type[static_cast<std::size_t>(NodeType::kCk)], 0u);
}

TEST_F(GeneratedDesignTest, HasMemoriesRegistersAndComb) {
  const auto by_group = nl_.count_by_group();
  EXPECT_GT(by_group[static_cast<std::size_t>(liberty::PowerGroup::kComb)], 100u);
  EXPECT_GT(by_group[static_cast<std::size_t>(liberty::PowerGroup::kRegister)], 100u);
  EXPECT_GE(by_group[static_cast<std::size_t>(liberty::PowerGroup::kMemory)], 1u);
}

TEST_F(GeneratedDesignTest, EveryCellBelongsToASubmodule) {
  for (netlist::CellInstId id = 0; id < nl_.num_cells(); ++id) {
    EXPECT_NE(nl_.cell(id).submodule, netlist::kNoSubmodule)
        << nl_.cell(id).name;
  }
}

TEST_F(GeneratedDesignTest, SubmodulesAreNonOverlappingAndCover) {
  // Partition property (paper Sec. III-A): sub-module cell sets are disjoint
  // and cover the design (cells_in_submodule is keyed by the cell's single
  // submodule field, so disjointness is structural; verify coverage).
  std::size_t covered = 0;
  for (netlist::SubmoduleId sm = 0;
       sm < static_cast<netlist::SubmoduleId>(nl_.submodules().size()); ++sm) {
    covered += nl_.cells_in_submodule(sm).size();
  }
  EXPECT_EQ(covered, nl_.num_cells());
}

TEST_F(GeneratedDesignTest, ComponentsMatchSpec) {
  const auto spec = paper_design_spec(2, 0.004);
  EXPECT_EQ(nl_.components().size(), spec.components.size());
  // C2 mimics the paper's OoO CPU: five components including lsu and dcache.
  std::set<std::string> names(nl_.components().begin(), nl_.components().end());
  EXPECT_TRUE(names.count("lsu"));
  EXPECT_TRUE(names.count("dcache"));
  EXPECT_TRUE(names.count("frontend"));
}

TEST_F(GeneratedDesignTest, DeterministicForSeed) {
  const Netlist again = generate_design(paper_design_spec(2, 0.004), lib_);
  ASSERT_EQ(again.num_cells(), nl_.num_cells());
  ASSERT_EQ(again.num_nets(), nl_.num_nets());
  for (netlist::CellInstId id = 0; id < nl_.num_cells(); ++id) {
    ASSERT_EQ(again.cell(id).name, nl_.cell(id).name);
    ASSERT_EQ(again.cell(id).lib_cell, nl_.cell(id).lib_cell);
    ASSERT_EQ(again.cell(id).pin_nets, nl_.cell(id).pin_nets);
  }
}

TEST_F(GeneratedDesignTest, DifferentDesignsDiffer) {
  const Netlist other = generate_design(paper_design_spec(4, 0.004), lib_);
  EXPECT_NE(other.num_cells(), nl_.num_cells());
  EXPECT_NE(other.components().size(), nl_.components().size());
}

TEST_F(GeneratedDesignTest, VerilogRoundTripPreservesDesign) {
  const std::string text = netlist::write_verilog(nl_);
  const Netlist back = netlist::parse_verilog(text, lib_);
  EXPECT_EQ(back.num_cells(), nl_.num_cells());
  EXPECT_EQ(back.num_nets(), nl_.num_nets());
  EXPECT_EQ(back.submodules().size(), nl_.submodules().size());
  EXPECT_NO_THROW(back.check());
}

TEST_F(GeneratedDesignTest, SimulatesAndTogglesEverywhere) {
  sim::CycleSimulator sim(nl_);
  sim::StimulusGenerator stim(nl_, sim::make_w1());
  const sim::ToggleTrace t = sim.run(stim, 40);
  // A healthy fraction of nets toggles at least once in 40 cycles.
  std::size_t toggled = 0;
  for (NetId n = 0; n < nl_.num_nets(); ++n) {
    toggled += t.total_transitions(n) > 0;
  }
  EXPECT_GT(toggled, nl_.num_nets() / 4);
}

TEST(DesignGenerator, RejectsTinyTargets) {
  const liberty::Library lib = liberty::make_default_library();
  DesignSpec spec;
  spec.target_cells = 10;
  EXPECT_THROW(generate_design(spec, lib), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::designgen
