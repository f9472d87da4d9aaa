#include <gtest/gtest.h>

#include "designgen/design_generator.h"
#include "layout/layout_flow.h"
#include "liberty/library.h"
#include "power/power_analyzer.h"
#include "power/power_report.h"
#include "sim/vcd.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace atlas::power {
namespace {

using netlist::NetId;
using netlist::Netlist;

TEST(GroupPowerTest, Accounting) {
  GroupPower p;
  p.add(liberty::PowerGroup::kComb, 10.0);
  p.add(liberty::PowerGroup::kRegister, 5.0);
  p.add(liberty::PowerGroup::kClockTree, 2.0);
  p.add(liberty::PowerGroup::kMemory, 20.0);
  EXPECT_DOUBLE_EQ(p.total(), 37.0);
  EXPECT_DOUBLE_EQ(p.total_no_memory(), 17.0);
  EXPECT_DOUBLE_EQ(p.comb, 10.0);
  GroupPower q = p;
  q += p;
  EXPECT_DOUBLE_EQ(q.total(), 74.0);
}

TEST(MapeTest, Basics) {
  EXPECT_DOUBLE_EQ(mape({100, 100}, {100, 100}), 0.0);
  EXPECT_DOUBLE_EQ(mape({100, 100}, {90, 110}), 10.0);
  // Zero label, nonzero prediction: counts as 100% (paper's clock-tree case).
  EXPECT_DOUBLE_EQ(mape({0.0, 0.0}, {5.0, 7.0}), 100.0);
  EXPECT_DOUBLE_EQ(mape({0.0}, {0.0}), 0.0);
  EXPECT_THROW(mape({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(mape({}, {}), std::invalid_argument);
}

class PowerShapeTest : public ::testing::Test {
 protected:
  static constexpr int kCycles = 60;

  PowerShapeTest()
      : lib_(liberty::make_default_library()),
        gate_(designgen::generate_design(designgen::paper_design_spec(2, 0.003),
                                         lib_)),
        layout_(layout::run_layout(gate_)) {
    // Golden: post-layout netlist with extracted caps.
    sim::CycleSimulator sim_p(layout_.netlist);
    sim::StimulusGenerator stim_p(layout_.netlist, sim::make_w1());
    golden_ = std::make_unique<PowerResult>(
        analyze_power(layout_.netlist, sim_p.run(stim_p, kCycles)));
    // Baseline: same engine on the gate-level netlist (zero wire caps,
    // no clock tree) — the paper's "Gate-Level PTPX".
    sim::CycleSimulator sim_g(gate_);
    sim::StimulusGenerator stim_g(gate_, sim::make_w1());
    baseline_ = std::make_unique<PowerResult>(
        analyze_power(gate_, sim_g.run(stim_g, kCycles)));
  }

  liberty::Library lib_;
  Netlist gate_;
  layout::LayoutResult layout_;
  std::unique_ptr<PowerResult> golden_;
  std::unique_ptr<PowerResult> baseline_;
};

TEST_F(PowerShapeTest, AllGroupsPositivePostLayout) {
  const GroupPower avg = golden_->average_design();
  EXPECT_GT(avg.comb, 0.0);
  EXPECT_GT(avg.reg, 0.0);
  EXPECT_GT(avg.clock, 0.0);
  EXPECT_GT(avg.memory, 0.0);
}

TEST_F(PowerShapeTest, GateLevelHasZeroClockTreePower) {
  // Paper Table III: Gate-Level PTPX clock-tree MAPE is 100% because the
  // clock network simply does not exist at the gate level.
  const GroupPower avg = baseline_->average_design();
  EXPECT_DOUBLE_EQ(avg.clock, 0.0);
  const double clock_mape = mape(series_of(*golden_, Series::kClock),
                                 series_of(*baseline_, Series::kClock));
  EXPECT_DOUBLE_EQ(clock_mape, 100.0);
}

TEST_F(PowerShapeTest, GateLevelUnderestimatesCombPower) {
  // Paper: ~70% combinational MAPE at gate level, driven by missing wire
  // caps and missing reconstruction buffers.
  const double comb_mape = mape(series_of(*golden_, Series::kComb),
                                series_of(*baseline_, Series::kComb));
  EXPECT_GT(comb_mape, 25.0);
  const GroupPower g = golden_->average_design();
  const GroupPower b = baseline_->average_design();
  EXPECT_LT(b.comb, g.comb) << "gate level must underestimate";
}

TEST_F(PowerShapeTest, RegisterPowerCloseAcrossStages) {
  // Paper: register group MAPE at gate level is only ~2.3% — registers and
  // their clock-pin energy exist at both stages.
  const double reg_mape = mape(series_of(*golden_, Series::kReg),
                               series_of(*baseline_, Series::kReg));
  EXPECT_LT(reg_mape, 30.0);
}

TEST_F(PowerShapeTest, TotalGapMatchesPaperShape) {
  // Paper: >25% total error at gate level (excluding memory).
  const double total_mape = mape(series_of(*golden_, Series::kTotalNoMemory),
                                 series_of(*baseline_, Series::kTotalNoMemory));
  EXPECT_GT(total_mape, 15.0);
  EXPECT_LT(total_mape, 90.0);
}

TEST_F(PowerShapeTest, PerCyclePowerFluctuates) {
  const auto series = series_of(*golden_, Series::kTotalNoMemory);
  const auto [mn, mx] = std::minmax_element(series.begin() + 5, series.end());
  EXPECT_GT(*mx, *mn * 1.05);
}

TEST_F(PowerShapeTest, SubmodulePowersSumToDesign) {
  // Non-overlapping sub-modules: per-cycle design power equals the sum over
  // sub-modules (paper Sec. III-A motivation for sub-module splitting).
  for (int c = 0; c < kCycles; c += 7) {
    GroupPower sum;
    for (std::size_t sm = 0; sm < golden_->num_submodules(); ++sm) {
      sum += golden_->submodule(c, static_cast<netlist::SubmoduleId>(sm));
    }
    const GroupPower& d = golden_->design(c);
    EXPECT_NEAR(sum.total(), d.total(), d.total() * 1e-9 + 1e-9);
    EXPECT_NEAR(sum.clock, d.clock, d.clock * 1e-9 + 1e-9);
  }
}

TEST_F(PowerShapeTest, MemoryDominant) {
  // Paper Sec. VI-B: SRAM is a large share of total power (≈half there).
  const GroupPower avg = golden_->average_design();
  EXPECT_GT(avg.memory / avg.total(), 0.15);
}

TEST_F(PowerShapeTest, ClockPowerVariesWithGating) {
  // ICGs make clock-tree power per cycle non-constant.
  const auto series = series_of(*golden_, Series::kClock);
  const auto [mn, mx] = std::minmax_element(series.begin() + 5, series.end());
  EXPECT_GT(*mx, *mn);
}

TEST_F(PowerShapeTest, LeakageToggleIndependentPart) {
  PowerConfig no_leak;
  no_leak.include_leakage = false;
  sim::CycleSimulator sim_p(layout_.netlist);
  sim::StimulusGenerator stim_p(layout_.netlist, sim::make_w1());
  const PowerResult without =
      analyze_power(layout_.netlist, sim_p.run(stim_p, 10), no_leak);
  // Leakage-inclusive power strictly larger.
  EXPECT_GT(golden_->design(5).total(), without.design(5).total());
}

TEST_F(PowerShapeTest, ReportHelpersProduceText) {
  const GroupPower avg = golden_->average_design();
  EXPECT_NE(group_table(avg).find("clock tree"), std::string::npos);
  const std::string csv = trace_csv(*golden_);
  EXPECT_NE(csv.find("cycle,comb_uw"), std::string::npos);
  // Header + one row per cycle.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')),
            kCycles + 1);
}

TEST_F(PowerShapeTest, TraceNetlistMismatchThrows) {
  sim::ToggleTrace tiny(3, 2);
  EXPECT_THROW(analyze_power(gate_, tiny), std::invalid_argument);
}

TEST_F(PowerShapeTest, ThreadCountEquivalenceBitExact) {
  // The full per-cycle pipeline (simulation + power analysis) must produce
  // bit-identical outputs at threads=1 and threads=4: parallel loops write
  // disjoint per-cycle/per-net slots and all reductions are ordered, so
  // exact double equality is the contract, not a tolerance.
  auto run_pipeline = [&] {
    sim::CycleSimulator sim(layout_.netlist);
    sim::StimulusGenerator stim(layout_.netlist, sim::make_w1());
    return analyze_power(layout_.netlist, sim.run(stim, kCycles));
  };
  util::set_global_threads(1);
  const PowerResult serial = run_pipeline();
  util::set_global_threads(4);
  const PowerResult threaded = run_pipeline();
  util::set_global_threads(0);

  ASSERT_EQ(serial.num_cycles(), threaded.num_cycles());
  ASSERT_EQ(serial.num_submodules(), threaded.num_submodules());
  for (int c = 0; c < serial.num_cycles(); ++c) {
    const GroupPower& a = serial.design(c);
    const GroupPower& b = threaded.design(c);
    ASSERT_EQ(a.comb, b.comb) << "cycle " << c;
    ASSERT_EQ(a.reg, b.reg) << "cycle " << c;
    ASSERT_EQ(a.clock, b.clock) << "cycle " << c;
    ASSERT_EQ(a.memory, b.memory) << "cycle " << c;
    for (std::size_t sm = 0; sm < serial.num_submodules(); ++sm) {
      const auto id = static_cast<netlist::SubmoduleId>(sm);
      ASSERT_EQ(serial.submodule(c, id).total(), threaded.submodule(c, id).total())
          << "cycle " << c << " submodule " << sm;
    }
  }
  // Ordered reductions make the averages exact too.
  const GroupPower avg_a = serial.average_design();
  const GroupPower avg_b = threaded.average_design();
  EXPECT_EQ(avg_a.total(), avg_b.total());
}

TEST_F(PowerShapeTest, VcdRoundTripPowerMatches) {
  // VCD in -> trace reconstruction -> power analysis must reproduce the
  // direct analysis (clock activity is reconstructed, not stored).
  sim::CycleSimulator sim(layout_.netlist);
  sim::StimulusGenerator stim(layout_.netlist, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, 20);
  const std::string text = sim::write_vcd(layout_.netlist, trace,
                                          sim.clock_net_mask());
  const sim::ToggleTrace rebuilt = sim::parse_vcd(text, layout_.netlist);
  const PowerResult direct = analyze_power(layout_.netlist, trace);
  const PowerResult via_vcd = analyze_power(layout_.netlist, rebuilt);
  // Cycle 0 differs (VCD has no pre-cycle reference value); compare later
  // cycles exactly.
  for (int c = 2; c < 20; c += 3) {
    EXPECT_NEAR(via_vcd.design(c).total(), direct.design(c).total(),
                direct.design(c).total() * 0.02)
        << "cycle " << c;
    EXPECT_NEAR(via_vcd.design(c).clock, direct.design(c).clock,
                direct.design(c).clock * 0.02 + 1e-9);
  }
}

}  // namespace
}  // namespace atlas::power
