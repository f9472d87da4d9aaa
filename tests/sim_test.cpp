#include <gtest/gtest.h>

#include <fstream>

#include "designgen/design_generator.h"
#include "liberty/library.h"
#include "netlist/netlist.h"
#include "sim/delta_trace.h"
#include "sim/external_trace.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "sim/vcd.h"
#include "util/rng.h"

namespace atlas::sim {
namespace {

using liberty::CellFunc;
using netlist::CellInstId;
using netlist::NetId;
using netlist::Netlist;

/// Stimulus that drives a fixed per-cycle pattern on chosen nets.
class FixedStim : public StimulusGenerator {
 public:
  // Reuse base with an empty workload; we override by direct application.
  FixedStim(const Netlist& nl, std::vector<std::pair<NetId, std::vector<int>>> seq)
      : StimulusGenerator(nl, WorkloadSpec{}), seq_(std::move(seq)) {}

  void apply_fixed(int cycle, std::vector<std::uint8_t>& values) const {
    for (const auto& [net, pattern] : seq_) {
      values[net] = static_cast<std::uint8_t>(
          pattern[static_cast<std::size_t>(cycle) % pattern.size()]);
    }
  }

 private:
  std::vector<std::pair<NetId, std::vector<int>>> seq_;
};

class SimTest : public ::testing::Test {
 protected:
  SimTest() : lib_(liberty::make_default_library()) {}
  liberty::Library lib_;
};

// The StimulusGenerator API drives only PIs; to test exact logic we build
// designs whose PIs carry deterministic patterns via the workload RNG seed
// being irrelevant (we probe structure instead). For exact-value tests we
// exercise the simulator through tiny designs with constant ties.
TEST_F(SimTest, ConstantPropagation) {
  Netlist nl("t", lib_);
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const NetId hi = nl.add_net("hi");
  const NetId lo = nl.add_net("lo");
  nl.add_cell("th", lib_.must("TIEHI_X1"), {hi});
  nl.add_cell("tl", lib_.must("TIELO_X1"), {lo});
  const NetId y = nl.add_net("y");
  nl.add_cell("g", lib_.must("NAND2_X1"), {hi, lo, y});
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace trace = sim.run(stim, 5);
  for (int c = 0; c < 5; ++c) {
    EXPECT_TRUE(trace.value(c, hi));
    EXPECT_FALSE(trace.value(c, lo));
    EXPECT_TRUE(trace.value(c, y));  // NAND(1,0) = 1
    EXPECT_EQ(trace.transitions(c, y), 0);
  }
}

TEST_F(SimTest, ClockNetsToggleTwicePerCycle) {
  Netlist nl("t", lib_);
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const NetId buffed = nl.add_net("ckb");
  nl.add_cell("cb", lib_.must("CKBUF_X1"), {clk, buffed});
  const NetId hi = nl.add_net("hi");
  nl.add_cell("th", lib_.must("TIEHI_X1"), {hi});
  const NetId q = nl.add_net("q");
  nl.add_cell("r", lib_.must("DFF_X1"), {hi, buffed, q});
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace trace = sim.run(stim, 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(trace.transitions(c, clk), 2);
    EXPECT_EQ(trace.transitions(c, buffed), 2);
  }
  // The register captures the tie-high after the first edge.
  EXPECT_TRUE(trace.value(1, q));
  EXPECT_TRUE(trace.value(3, q));
}

TEST_F(SimTest, ClockGateBlocksDownstreamActivity) {
  Netlist nl("t", lib_);
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const NetId en = nl.add_net("en");
  nl.mark_primary_input(en);  // data PI; workload drives it randomly
  const NetId lo = nl.add_net("lo");
  nl.add_cell("tl", lib_.must("TIELO_X1"), {lo});
  const NetId gck = nl.add_net("gck");
  nl.add_cell("icg", lib_.must("CKGATE_X1"), {clk, lo, gck});  // EN tied low
  const NetId hi = nl.add_net("hi");
  nl.add_cell("th", lib_.must("TIEHI_X1"), {hi});
  const NetId q = nl.add_net("q");
  nl.add_cell("r", lib_.must("DFF_X1"), {hi, gck, q});
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace trace = sim.run(stim, 6);
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(trace.transitions(c, gck), 0) << "gated clock must not toggle";
    EXPECT_FALSE(trace.value(c, q)) << "gated register must hold reset value";
  }
}

TEST_F(SimTest, DffrResetsSynchronously) {
  Netlist nl("t", lib_);
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const NetId rstn = nl.add_net("rstn");
  nl.mark_primary_input(rstn);
  const NetId hi = nl.add_net("hi");
  nl.add_cell("th", lib_.must("TIEHI_X1"), {hi});
  const NetId q = nl.add_net("q");
  nl.add_cell("r", lib_.must("DFFR_X1"), {hi, clk, rstn, q});
  CycleSimulator sim(nl);
  WorkloadSpec spec = make_w1();
  spec.reset_cycles = 3;
  StimulusGenerator stim(nl, spec);
  const ToggleTrace trace = sim.run(stim, 8);
  // While rstn=0 the register stays 0; after deassertion it captures 1.
  EXPECT_FALSE(trace.value(0, q));
  EXPECT_FALSE(trace.value(2, q));
  EXPECT_TRUE(trace.value(5, q));
  EXPECT_TRUE(trace.value(7, q));
}

TEST_F(SimTest, SramWritesThenReads) {
  Netlist nl("t", lib_);
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const liberty::CellId sram = lib_.cell_for(CellFunc::kSram);
  const liberty::Cell& sc = lib_.cell(sram);
  // CSB=0 (always selected), WEB toggles: write phase then read phase driven
  // by a register chain: WEB = q of a DFF capturing rstn-like PI. For
  // simplicity tie CSB low and drive WEB from a data PI.
  const NetId lo = nl.add_net("lo");
  nl.add_cell("tl", lib_.must("TIELO_X1"), {lo});
  const NetId hi = nl.add_net("hi");
  nl.add_cell("th", lib_.must("TIEHI_X1"), {hi});
  const NetId web = nl.add_net("web");
  nl.mark_primary_input(web);
  std::vector<NetId> pins;
  pins.push_back(clk);
  pins.push_back(lo);   // CSB active
  pins.push_back(web);  // WEB from PI
  // addr = all zero, din = all one.
  for (std::size_t i = 0; i < 8; ++i) pins.push_back(lo);
  for (std::size_t i = 0; i < 16; ++i) pins.push_back(hi);
  std::vector<NetId> qnets;
  for (std::size_t i = 0; i < 16; ++i) {
    qnets.push_back(nl.add_net("q" + std::to_string(i)));
    pins.push_back(qnets.back());
  }
  ASSERT_EQ(pins.size(), sc.pins.size());
  nl.add_cell("mem", sram, pins);
  CycleSimulator sim(nl);
  // Drive WEB: low (write) for cycles 0-2, high (read) after. The stimulus
  // generator can't express that, so approximate with reset_cycles trick:
  // name the PI "rstn" is taken; instead run twice with constant web.
  // Here: WEB low -> always writing; Q holds 0.
  {
    WorkloadSpec spec = make_w1();
    spec.idle_activity = spec.compute_activity = spec.burst_activity = 0.0;
    StimulusGenerator stim(nl, spec);  // PIs stay 0 -> WEB=0 (write)
    const ToggleTrace t = sim.run(stim, 4);
    for (const NetId q : qnets) EXPECT_FALSE(t.value(3, q));
  }
  // Fresh simulator; write once then read by toggling WEB via bus activity
  // is stochastic — instead validate read path: memory zeroed, read gives 0,
  // then after writes of all-ones appear when WEB low... covered above.
  // Read phase: WEB stuck high reads address 0 (still zero).
  {
    CycleSimulator sim2(nl);
    WorkloadSpec spec = make_w1();
    spec.idle_activity = spec.compute_activity = spec.burst_activity = 1.0;
    StimulusGenerator stim(nl, spec);
    const ToggleTrace t = sim2.run(stim, 12);
    // With WEB random, eventually a write of ones lands at addr 0 and a later
    // read returns ones.
    bool saw_ones = false;
    for (int c = 0; c < 12; ++c) saw_ones = saw_ones || t.value(c, qnets[0]);
    EXPECT_TRUE(saw_ones);
  }
}

TEST_F(SimTest, ToggleTraceAccounting) {
  ToggleTrace t(3, 4);
  t.set(0, 1, true, 1);
  t.set(1, 1, false, 1);
  t.set(2, 1, false, 0);
  t.set(3, 1, true, 1);
  EXPECT_EQ(t.total_transitions(1), 3);
  EXPECT_DOUBLE_EQ(t.toggle_rate(1), 0.75);
  EXPECT_EQ(t.total_transitions(0), 0);
  EXPECT_TRUE(t.value(3, 1));
  EXPECT_FALSE(t.value(2, 1));
}

TEST_F(SimTest, DeterministicAcrossRuns) {
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator s1(nl, make_w1());
  StimulusGenerator s2(nl, make_w1());
  CycleSimulator sim2(nl);
  const ToggleTrace a = sim.run(s1, 20);
  const ToggleTrace b = sim2.run(s2, 20);
  for (int c = 0; c < 20; ++c) {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_EQ(a.value(c, n), b.value(c, n));
      ASSERT_EQ(a.transitions(c, n), b.transitions(c, n));
    }
  }
}

TEST_F(SimTest, RepeatedRunsOnOneSimulatorStartFromZeroedSram) {
  // SRAM contents belong to a run, not to the simulator: a second run with
  // fresh, identical stimulus must reproduce the first trace exactly rather
  // than reading back the first run's writes.
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  std::size_t macros = 0;
  for (CellInstId id = 0; id < nl.num_cells(); ++id) {
    macros += liberty::is_macro(nl.lib_cell(id).func);
  }
  ASSERT_GT(macros, 0u);
  CycleSimulator sim(nl);
  StimulusGenerator s1(nl, make_w1());
  StimulusGenerator s2(nl, make_w1());
  const ToggleTrace a = sim.run(s1, 60);
  const ToggleTrace b = sim.run(s2, 60);
  for (int c = 0; c < 60; ++c) {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_EQ(a.value(c, n), b.value(c, n)) << "cycle " << c << " net " << n;
      ASSERT_EQ(a.transitions(c, n), b.transitions(c, n))
          << "cycle " << c << " net " << n;
    }
  }
}

TEST_F(SimTest, WorkloadsProduceDifferentActivity) {
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator s1(nl, make_w1());
  const ToggleTrace a = sim.run(s1, 50);
  CycleSimulator sim2(nl);
  StimulusGenerator s2(nl, make_w2());
  const ToggleTrace b = sim2.run(s2, 50);
  long long ta = 0, tb = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    ta += a.total_transitions(n);
    tb += b.total_transitions(n);
  }
  EXPECT_GT(ta, 0);
  EXPECT_GT(tb, 0);
  EXPECT_NE(ta, tb);
}

TEST_F(SimTest, ActivityVariesOverTime) {
  // Per-cycle power modeling is pointless if activity is flat; check the
  // workload produces fluctuating per-cycle toggle totals.
  const auto spec = designgen::paper_design_spec(2, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace t = sim.run(stim, 100);
  std::vector<long long> per_cycle(100, 0);
  for (int c = 0; c < 100; ++c) {
    for (NetId n = 0; n < nl.num_nets(); ++n) per_cycle[static_cast<std::size_t>(c)] += t.transitions(c, n);
  }
  const auto [mn, mx] = std::minmax_element(per_cycle.begin() + 5, per_cycle.end());
  EXPECT_GT(*mx, *mn * 1.2) << "per-cycle activity should fluctuate";
}

TEST_F(SimTest, VcdRoundTrip) {
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace t = sim.run(stim, 10);
  const std::string text = write_vcd(nl, t, sim.clock_net_mask());
  const ToggleTrace back = parse_vcd(text, nl);
  ASSERT_EQ(back.num_cycles(), 10);
  int checked = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (sim.clock_net_mask()[n]) continue;
    for (int c = 0; c < 10; ++c) {
      ASSERT_EQ(back.value(c, n), t.value(c, n))
          << "net " << nl.net(n).name << " cycle " << c;
    }
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

TEST_F(SimTest, MalformedVcdThrowsInsteadOfCrashing) {
  // The corpus the serve layer relies on: every hostile or corrupt input a
  // streamed upload could carry must throw (and be turned into an error
  // reply) rather than crash or over-allocate.
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const std::string good = write_vcd(nl, sim.run(stim, 4), sim.clock_net_mask());

  // Truncated $var declaration.
  EXPECT_THROW(parse_vcd("$var wire 1 ! $end\n", nl), TraceError);
  // Net name that does not exist in the netlist.
  EXPECT_THROW(
      parse_vcd("$var wire 1 ! no_such_net $end\n$enddefinitions $end\n#0\n",
                nl),
      TraceError);
  // Value change for an identifier never declared.
  EXPECT_THROW(parse_vcd("$enddefinitions $end\n#0\n1@@@\n", nl),
               TraceError);
  // Garbage line in the value-change section.
  EXPECT_THROW(parse_vcd("$enddefinitions $end\n#0\nhello world\n", nl),
               TraceError);
  // Non-decimal, signed, and empty timestamps.
  EXPECT_THROW(parse_vcd("$enddefinitions $end\n#12x\n", nl), TraceError);
  EXPECT_THROW(parse_vcd("$enddefinitions $end\n#-3\n", nl), TraceError);
  EXPECT_THROW(parse_vcd("$enddefinitions $end\n#\n", nl), TraceError);
  // A timestamp past the cycle cap throws before rows are materialized —
  // the allocation-bomb guard (this declares ~10^18 cycles).
  EXPECT_THROW(parse_vcd("$enddefinitions $end\n#999999999999999999\n", nl),
               TraceError);
  EXPECT_THROW(parse_vcd("$enddefinitions $end\n#0\n#10\n", nl,
                         /*max_cycles=*/5),
               TraceError);

  // The well-formed dump still parses after all that.
  EXPECT_EQ(parse_vcd(good, nl).num_cycles(), 4);
}

TEST_F(SimTest, ExternalTraceResolvesIdenticallyToParseVcd) {
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace original = sim.run(stim, 10);
  const std::string text = write_vcd(nl, original, sim.clock_net_mask());

  const ExternalTrace trace = ExternalTrace::from_vcd_text(text);
  EXPECT_EQ(trace.bytes(), text);
  EXPECT_EQ(trace.resolve(nl).num_cycles(), 10);
  // Content-addressed: same bytes, same hash; different bytes, different.
  EXPECT_EQ(trace.content_hash(),
            ExternalTrace::from_vcd_text(text).content_hash());
  EXPECT_NE(trace.content_hash(),
            ExternalTrace::from_vcd_text(text + "\n#11\n").content_hash());

  // resolve() is the one shared decode path (disk or wire): it must equal
  // parse_vcd transition-for-transition.
  const ToggleTrace resolved = trace.resolve(nl);
  const ToggleTrace expected = parse_vcd(text, nl);
  ASSERT_EQ(resolved.num_cycles(), expected.num_cycles());
  for (int c = 0; c < resolved.num_cycles(); ++c) {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_EQ(resolved.transitions(c, n), expected.transitions(c, n));
      ASSERT_EQ(resolved.value(c, n), expected.value(c, n));
    }
  }

  // from_file reads a .vcd back through the same bytes (hash proves it).
  const std::string path = ::testing::TempDir() + "/external_trace_test.vcd";
  {
    std::ofstream os(path, std::ios::binary);
    os << text;
  }
  EXPECT_EQ(ExternalTrace::from_file(path).content_hash(),
            trace.content_hash());
  EXPECT_THROW(ExternalTrace::from_file(path + ".missing"),
               std::exception);
}

// A replayed trace is the simulation it was dumped from: every net's value
// and transition count agree from cycle 1 on, through both encodings.
// (Cycle 0 differs by design: the dump has no pre-trace levels, so replay
// ignores ICG enables and records no data transitions there.)
class ReplayEqualsSimulationTest : public SimTest,
                                   public ::testing::WithParamInterface<int> {};

TEST_P(ReplayEqualsSimulationTest, FromCycleOneOnThroughBothEncodings) {
  const Netlist nl =
      designgen::generate_design(designgen::paper_design_spec(GetParam(), 0.0025), lib_);
  CycleSimulator sim(nl);
  const std::vector<bool>& mask = sim.clock_net_mask();
  for (const WorkloadSpec& workload : {make_w1(), make_w2()}) {
    StimulusGenerator stim(nl, workload);
    const ToggleTrace simulated = sim.run(stim, 40);
    for (const ExternalTrace& ext :
         {ExternalTrace::from_vcd_text(write_vcd(nl, simulated, mask)),
          ExternalTrace::from_delta_bytes(write_delta(nl, simulated, mask))}) {
      SCOPED_TRACE(workload.name + (ext.encoding() == TraceEncoding::kDelta
                                        ? " delta" : " vcd"));
      const ToggleTrace replayed = ext.resolve(nl);
      ASSERT_EQ(replayed.num_cycles(), simulated.num_cycles());
      ASSERT_EQ(replayed.num_nets(), simulated.num_nets());
      for (int c = 1; c < replayed.num_cycles(); ++c) {
        for (NetId n = 0; n < nl.num_nets(); ++n) {
          ASSERT_EQ(replayed.value(c, n), simulated.value(c, n))
              << "net " << nl.net(n).name << " cycle " << c;
          ASSERT_EQ(replayed.transitions(c, n), simulated.transitions(c, n))
              << "net " << nl.net(n).name << " cycle " << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(C1toC6, ReplayEqualsSimulationTest, ::testing::Range(1, 7));

// ---- ATDT delta codec (sim/delta_trace.h) ----------------------------------

namespace {

/// Assert two resolved traces are bit-identical (values AND transitions).
void expect_same_toggle_trace(const ToggleTrace& a, const ToggleTrace& b) {
  ASSERT_EQ(a.num_cycles(), b.num_cycles());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (int c = 0; c < a.num_cycles(); ++c) {
    for (NetId n = 0; n < a.num_nets(); ++n) {
      ASSERT_EQ(a.value(c, n), b.value(c, n)) << "net " << n << " cycle " << c;
      ASSERT_EQ(a.transitions(c, n), b.transitions(c, n))
          << "net " << n << " cycle " << c;
    }
  }
}

std::string varint(std::uint64_t v) {
  std::string s;
  while (v >= 0x80) {
    s.push_back(static_cast<char>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  s.push_back(static_cast<char>(v));
  return s;
}

std::string le64(std::uint64_t v) {
  std::string s;
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  return s;
}

/// Hand-build an ATDT header (magic, version, nets, cycles, order hash).
std::string delta_header(std::uint64_t nets, std::uint64_t cycles,
                         std::uint64_t order) {
  std::string s("ATDT\x01", 5);
  s += varint(nets);
  s += varint(cycles);
  s += le64(order);
  return s;
}

}  // namespace

TEST_F(SimTest, DeltaRoundTripMatchesVcdResolve) {
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace original = sim.run(stim, 10);
  const std::string text = write_vcd(nl, original, sim.clock_net_mask());
  const std::string delta = write_delta(nl, original, sim.clock_net_mask());

  // Transcoding the parsed VCD emits the same bytes as encoding the
  // simulated trace directly — the offline converter (encode-trace) and the
  // simulator dump agree byte-for-byte.
  EXPECT_EQ(write_delta(nl, parse_vcd(text, nl), sim.clock_net_mask()), delta);

  EXPECT_TRUE(looks_like_delta(delta));
  EXPECT_FALSE(looks_like_delta(text));
  EXPECT_LT(delta.size(), text.size());

  // Both decoders yield bit-identical traces, including the replayed clock
  // activity, directly and through resolve() (the single path the server
  // and atlas_cli --vcd both take).
  expect_same_toggle_trace(parse_delta(delta, nl), parse_vcd(text, nl));
  expect_same_toggle_trace(
      ExternalTrace::from_delta_bytes(delta).resolve(nl),
      ExternalTrace::from_vcd_text(text).resolve(nl));

  const ExternalTrace ext = ExternalTrace::from_delta_bytes(delta);
  EXPECT_EQ(ext.encoding(), TraceEncoding::kDelta);
  EXPECT_EQ(validate_delta(delta), 10);
  EXPECT_NE(ext.content_hash(),
            ExternalTrace::from_vcd_text(text).content_hash());

  // from_file sniffs the ATDT magic and picks the delta decoder.
  const std::string path = ::testing::TempDir() + "/delta_trace_test.atdt";
  {
    std::ofstream os(path, std::ios::binary);
    os << delta;
  }
  const ExternalTrace sniffed = ExternalTrace::from_file(path);
  EXPECT_EQ(sniffed.encoding(), TraceEncoding::kDelta);
  EXPECT_EQ(sniffed.content_hash(), ext.content_hash());
  // (Not compared against `original` directly: resolve() documents that
  // cycle 0 carries no data-net transitions, unlike a live simulation.)
  expect_same_toggle_trace(sniffed.resolve(nl),
                           ExternalTrace::from_vcd_text(text).resolve(nl));
}

TEST_F(SimTest, DeltaPropertyRandomizedRoundTrip) {
  // Property: for ANY per-cycle level assignment, VCD text and delta bytes
  // decode to identical ToggleTraces. Sweep toggle densities from all-quiet to
  // every-net-toggles-every-cycle across several seeds.
  const auto spec = designgen::paper_design_spec(3, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  const std::vector<bool>& mask = sim.clock_net_mask();
  const int cycles = 17;

  for (const double density : {0.0, 0.01, 0.3, 1.0}) {
    for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
      util::Rng rng(seed);
      ToggleTrace t(nl.num_nets(), cycles);
      std::vector<std::uint8_t> level(nl.num_nets(), 0);
      for (NetId n = 0; n < nl.num_nets(); ++n) level[n] = rng.next_bool(0.5);
      for (int c = 0; c < cycles; ++c) {
        for (NetId n = 0; n < nl.num_nets(); ++n) {
          if (c > 0 && (density >= 1.0 || rng.next_bool(density))) {
            level[n] ^= 1u;
          }
          t.set(c, n, level[n] != 0, 0);
        }
      }
      const std::string text = write_vcd(nl, t, mask);
      const std::string delta = write_delta(nl, t, mask);
      expect_same_toggle_trace(parse_delta(delta, nl), parse_vcd(text, nl));
      // Every encoder output passes the server check.
      EXPECT_EQ(validate_delta(delta), cycles);
      if (density == 0.0) {
        // All-quiet: header + initial bitmap only, no cycle records.
        const std::size_t header = 4 + 1 + varint(nl.num_nets()).size() +
                                   varint(cycles).size() + 8;
        EXPECT_EQ(delta.size(), header + (nl.num_nets() + 7) / 8);
      }
    }
  }
}

TEST_F(SimTest, DeltaSingleNetDesign) {
  // Degenerate shape: one data net (plus the clock root).
  Netlist nl("t", lib_);
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const NetId hi = nl.add_net("hi");
  nl.add_cell("th", lib_.must("TIEHI_X1"), {hi});
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const ToggleTrace t = sim.run(stim, 5);
  const std::string text = write_vcd(nl, t, sim.clock_net_mask());
  const std::string delta = write_delta(nl, t, sim.clock_net_mask());
  expect_same_toggle_trace(parse_delta(delta, nl), parse_vcd(text, nl));
  expect_same_toggle_trace(ExternalTrace::from_delta_bytes(delta).resolve(nl),
                           ExternalTrace::from_vcd_text(text).resolve(nl));
}

TEST_F(SimTest, DeltaAtExactlyMaxVcdCycles) {
  // An all-quiet trace at exactly the cycle cap encodes to a few bytes and
  // decodes fine; one cycle more is rejected up front (allocation-bomb
  // guard), as is a smaller explicit max_cycles.
  Netlist nl("t", lib_);
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const NetId hi = nl.add_net("hi");
  nl.add_cell("th", lib_.must("TIEHI_X1"), {hi});
  const std::vector<bool> mask = {true, false};

  const ToggleTrace at_cap(nl.num_nets(), kMaxVcdCycles);
  const std::string delta = write_delta(nl, at_cap, mask);
  EXPECT_LT(delta.size(), 32u);
  EXPECT_EQ(parse_delta(delta, nl).num_cycles(), kMaxVcdCycles);
  EXPECT_EQ(validate_delta(delta), kMaxVcdCycles);

  const ToggleTrace past_cap(nl.num_nets(), kMaxVcdCycles + 1);
  const std::string too_long = write_delta(nl, past_cap, mask);
  EXPECT_THROW(parse_delta(too_long, nl), TraceError);
  EXPECT_THROW(validate_delta(too_long), TraceError);
  EXPECT_THROW(parse_delta(delta, nl, /*max_cycles=*/16), TraceError);
}

TEST_F(SimTest, MalformedDeltaThrowsInsteadOfCrashing) {
  // The wire-facing corpus: every hostile shape throws TraceError from both
  // parse_delta (netlist-bound) and validate_delta (the server's nl-free
  // pre-dispatch walk) — never a crash or an allocation bomb.
  const auto spec = designgen::paper_design_spec(1, 0.002);
  const Netlist nl = designgen::generate_design(spec, lib_);
  CycleSimulator sim(nl);
  StimulusGenerator stim(nl, make_w1());
  const std::string good = write_delta(nl, sim.run(stim, 4),
                                       sim.clock_net_mask());
  const std::uint64_t order = net_order_hash(nl);

  int case_index = 0;
  const auto throws_everywhere = [&](const std::string& bytes) {
    SCOPED_TRACE("corpus case " + std::to_string(case_index++));
    EXPECT_THROW(parse_delta(bytes, nl), TraceError);
    EXPECT_THROW(validate_delta(bytes), TraceError);
  };

  // Framing: empty, wrong magic, unknown version, truncated header.
  throws_everywhere("");
  throws_everywhere("ATXX");
  throws_everywhere(std::string("ATDT\x02", 5) + varint(2) + varint(1));
  throws_everywhere(std::string("ATDT\x01", 5));
  // A varint that never terminates within its 10-byte budget.
  throws_everywhere(std::string("ATDT\x01", 5) +
                    std::string(11, '\x80'));
  // Truncated net-order hash.
  throws_everywhere(std::string("ATDT\x01", 5) + varint(2) + varint(1) +
                    "\x01\x02\x03");
  // Truncated initial level bitmap (2 nets declare 1 byte; none provided).
  throws_everywhere(delta_header(2, 3, order));
  // Padding bits set in the initial bitmap (3 nets -> top 5 bits must be 0).
  throws_everywhere(delta_header(3, 1, order) + "\xF8");
  // Trailing record in a zero-cycle trace.
  throws_everywhere(delta_header(2, 0, order) + std::string(1, '\0'));

  // Cycle records. Base: 2 nets, 4 cycles, quiet initial bitmap.
  const std::string base = delta_header(2, 4, order) + std::string(1, '\0');
  // Record skipped past the declared cycle count.
  throws_everywhere(base + varint(3) + '\0' + varint(1) + varint(0) +
                    varint(1));
  // Varint-encoded skip of ~2^63 (overflow probe).
  throws_everywhere(base + std::string(9, '\x80') + '\x7f');
  // Unknown record kind.
  throws_everywhere(base + varint(0) + '\x02');
  // RLE: zero runs / zero-length run / unmerged adjacent runs / run past
  // the net count / more runs than nets / truncated mid-run.
  throws_everywhere(base + varint(0) + '\0' + varint(0));
  throws_everywhere(base + varint(0) + '\0' + varint(1) + varint(0) +
                    varint(0));
  throws_everywhere(base + varint(0) + '\0' + varint(2) + varint(0) +
                    varint(1) + varint(0) + varint(1));
  throws_everywhere(base + varint(0) + '\0' + varint(1) + varint(0) +
                    varint(3));
  throws_everywhere(base + varint(0) + '\0' + varint(5));
  throws_everywhere(base + varint(0) + '\0' + varint(2) + varint(0) +
                    varint(1));
  // Bitmap records: truncated / all-zero (quiet cycles must be skipped,
  // not sent) / padding bits set.
  throws_everywhere(base + varint(0) + '\x01');
  throws_everywhere(base + varint(0) + '\x01' + std::string(1, '\0'));
  throws_everywhere(base + varint(0) + '\x01' + "\xFF");

  // Netlist binding: net-count and net-order mismatches fail parse_delta
  // but pass the structural walk (the server defers them to predict time,
  // where the netlist is known).
  const std::string wrong_count =
      delta_header(nl.num_nets() + 1, 0, order);
  EXPECT_THROW(parse_delta(wrong_count, nl), TraceError);
  validate_delta(wrong_count);
  std::string wrong_order = good;
  wrong_order[5 + varint(nl.num_nets()).size() + varint(4).size()] ^= 0x5a;
  EXPECT_THROW(parse_delta(wrong_order, nl), TraceError);
  validate_delta(wrong_order);

  // The well-formed encoding still decodes after all that.
  EXPECT_EQ(parse_delta(good, nl).num_cycles(), 4);
  EXPECT_EQ(validate_delta(good), 4);
}

}  // namespace
}  // namespace atlas::sim
