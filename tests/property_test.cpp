// Property-based suites: invariants swept over seeds, designs and
// configurations (TEST_P), complementing the example-based unit tests.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "atlas/model.h"
#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "layout/layout_flow.h"
#include "liberty/liberty_io.h"
#include "netlist/verilog_io.h"
#include "power/power_analyzer.h"
#include "serve/protocol.h"
#include "sim/delta_trace.h"
#include "sim/simulator.h"
#include "sim/vcd.h"
#include "transform/rewrite.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/socket.h"

// Allocation tracking for the ATSP mutation property: while an AllocTracker
// is alive on a thread, every operator new request size on that thread is
// folded into its running maximum.
namespace {
thread_local bool g_track_allocs = false;
thread_local std::size_t g_largest_alloc = 0;

void* tracked_alloc(std::size_t n) {
  if (g_track_allocs && n > g_largest_alloc) g_largest_alloc = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

class AllocTracker {
 public:
  AllocTracker() {
    g_largest_alloc = 0;
    g_track_allocs = true;
  }
  ~AllocTracker() { g_track_allocs = false; }
  std::size_t largest() const { return g_largest_alloc; }
};
}  // namespace

// Every allocating form the runtime may pair with the frees below is
// replaced, so no allocation made under ASan reaches free() unmatched.
void* operator new(std::size_t n) { return tracked_alloc(n); }
void* operator new[](std::size_t n) { return tracked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return tracked_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace atlas {
namespace {

const liberty::Library& lib() {
  static const liberty::Library l = liberty::make_default_library();
  return l;
}

// ---------------------------------------------------------------------------
// Designs swept over seeds: structural invariants.
// ---------------------------------------------------------------------------

class DesignSeedTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  netlist::Netlist make() const {
    designgen::DesignSpec spec;
    spec.name = "p" + std::to_string(GetParam());
    spec.seed = GetParam();
    spec.target_cells = 700;
    spec.num_memories = 1;
    return designgen::generate_design(spec, lib());
  }
};

TEST_P(DesignSeedTest, AlwaysStructurallyValid) {
  const netlist::Netlist nl = make();
  EXPECT_NO_THROW(nl.check());
  EXPECT_GE(nl.num_cells(), 700u);
}

TEST_P(DesignSeedTest, EveryNetHasExactlyOneSource) {
  const netlist::Netlist nl = make();
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    EXPECT_TRUE(net.has_driver() != net.is_primary_input)
        << "net " << net.name << " must be cell-driven XOR primary input";
  }
}

TEST_P(DesignSeedTest, SubmodulePartitionIsExact) {
  const netlist::Netlist nl = make();
  std::size_t covered = 0;
  for (netlist::SubmoduleId sm = 0;
       sm < static_cast<netlist::SubmoduleId>(nl.submodules().size()); ++sm) {
    covered += nl.cells_in_submodule(sm).size();
  }
  EXPECT_EQ(covered, nl.num_cells());
}

TEST_P(DesignSeedTest, RegistersAllOnTheClock) {
  const netlist::Netlist nl = make();
  for (netlist::CellInstId id = 0; id < nl.num_cells(); ++id) {
    const auto& lc = nl.lib_cell(id);
    if (lc.func != liberty::CellFunc::kDff &&
        lc.func != liberty::CellFunc::kDffR) {
      continue;
    }
    EXPECT_EQ(nl.cell(id).pin_nets[1], nl.clock_net())
        << nl.cell(id).name << " must be clocked by the root clock at gate level";
  }
}

TEST_P(DesignSeedTest, FreeRunningActivityNeverDies) {
  // The heartbeat LFSR guarantees toggles in every cycle, even with inputs
  // frozen (workload spec with zero activity).
  const netlist::Netlist nl = make();
  sim::WorkloadSpec dead;
  dead.idle_activity = dead.compute_activity = dead.burst_activity = 0.0;
  dead.seed = GetParam();
  sim::CycleSimulator sim(nl);
  sim::StimulusGenerator stim(nl, dead);
  const sim::ToggleTrace t = sim.run(stim, 24);
  for (int c = 4; c < 24; ++c) {
    long long transitions = 0;
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      if (n == nl.clock_net()) continue;
      transitions += t.transitions(c, n);
    }
    EXPECT_GT(transitions, 0) << "cycle " << c << " went fully static";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesignSeedTest,
                         ::testing::Values(3u, 17u, 99u, 1234u, 888888u));

// ---------------------------------------------------------------------------
// Rewrite equivalence swept over rewrite seeds.
// ---------------------------------------------------------------------------

class RewriteSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RewriteSeedTest, PrimaryOutputsEquivalent) {
  const netlist::Netlist gate = designgen::generate_design(
      designgen::paper_design_spec(1, 0.002), lib());
  transform::RewriteConfig cfg;
  cfg.seed = GetParam();
  const netlist::Netlist plus = transform::apply_rewrites(gate, cfg);
  sim::CycleSimulator sg(gate), sp(plus);
  sim::StimulusGenerator stg(gate, sim::make_w2());
  sim::StimulusGenerator stp(plus, sim::make_w2());
  const auto tg = sg.run(stg, 25);
  const auto tp = sp.run(stp, 25);
  std::unordered_map<std::string, netlist::NetId> by_name;
  for (netlist::NetId n = 0; n < plus.num_nets(); ++n) {
    by_name.emplace(plus.net(n).name, n);
  }
  for (const netlist::NetId po : gate.primary_outputs()) {
    const auto it = by_name.find(gate.net(po).name);
    ASSERT_NE(it, by_name.end());
    for (int c = 0; c < 25; ++c) {
      ASSERT_EQ(tg.value(c, po), tp.value(c, it->second))
          << "seed " << GetParam() << " net " << gate.net(po).name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteSeedTest,
                         ::testing::Values(1u, 2u, 5u, 42u, 31337u));

// ---------------------------------------------------------------------------
// Power accounting invariants across all six paper designs (small scale).
// ---------------------------------------------------------------------------

class PaperDesignTest : public ::testing::TestWithParam<int> {
 protected:
  netlist::Netlist make_gate() const {
    return designgen::generate_design(
        designgen::paper_design_spec(GetParam(), 0.0015), lib());
  }
};

TEST_P(PaperDesignTest, SubmodulePowerSumsToDesignEveryCycle) {
  const netlist::Netlist gate = make_gate();
  const layout::LayoutResult post = layout::run_layout(gate);
  sim::CycleSimulator sim(post.netlist);
  sim::StimulusGenerator stim(post.netlist, sim::make_w1());
  const auto trace = sim.run(stim, 15);
  const power::PowerResult r = power::analyze_power(post.netlist, trace);
  for (int c = 0; c < 15; ++c) {
    power::GroupPower sum;
    for (std::size_t sm = 0; sm < r.num_submodules(); ++sm) {
      sum += r.submodule(c, static_cast<netlist::SubmoduleId>(sm));
    }
    const auto& d = r.design(c);
    EXPECT_NEAR(sum.comb, d.comb, d.comb * 1e-9 + 1e-9);
    EXPECT_NEAR(sum.reg, d.reg, d.reg * 1e-9 + 1e-9);
    EXPECT_NEAR(sum.clock, d.clock, d.clock * 1e-9 + 1e-9);
    EXPECT_NEAR(sum.memory, d.memory, d.memory * 1e-9 + 1e-9);
  }
}

TEST_P(PaperDesignTest, PowerMonotoneInActivity) {
  // More input activity can only increase total switching energy.
  const netlist::Netlist gate = make_gate();
  auto avg_power = [&](double act) {
    sim::WorkloadSpec w = sim::make_w1();
    w.idle_activity = act * 0.2;
    w.compute_activity = act * 0.6;
    w.burst_activity = act;
    sim::CycleSimulator sim(gate);
    sim::StimulusGenerator stim(gate, w);
    const auto trace = sim.run(stim, 60);
    return power::analyze_power(gate, trace).average_design().total_no_memory();
  };
  const double lo = avg_power(0.1);
  const double hi = avg_power(0.9);
  EXPECT_GT(hi, lo);
}

TEST_P(PaperDesignTest, LayoutEquivalenceOnPrimaryOutputs) {
  const netlist::Netlist gate = make_gate();
  const layout::LayoutResult post = layout::run_layout(gate);
  sim::CycleSimulator sg(gate), sp(post.netlist);
  sim::StimulusGenerator stg(gate, sim::make_w1());
  sim::StimulusGenerator stp(post.netlist, sim::make_w1());
  const auto tg = sg.run(stg, 20);
  const auto tp = sp.run(stp, 20);
  std::unordered_map<std::string, netlist::NetId> by_name;
  for (netlist::NetId n = 0; n < post.netlist.num_nets(); ++n) {
    by_name.emplace(post.netlist.net(n).name, n);
  }
  for (const netlist::NetId po : gate.primary_outputs()) {
    const auto it = by_name.find(gate.net(po).name);
    ASSERT_NE(it, by_name.end());
    for (int c = 0; c < 20; ++c) {
      ASSERT_EQ(tg.value(c, po), tp.value(c, it->second))
          << "design C" << GetParam();
    }
  }
}

TEST_P(PaperDesignTest, VerilogRoundTripExact) {
  const netlist::Netlist gate = make_gate();
  const netlist::Netlist back =
      netlist::parse_verilog(netlist::write_verilog(gate), lib());
  ASSERT_EQ(back.num_cells(), gate.num_cells());
  for (netlist::CellInstId id = 0; id < gate.num_cells(); ++id) {
    ASSERT_EQ(back.cell(id).lib_cell, gate.cell(id).lib_cell);
    ASSERT_EQ(back.cell(id).submodule, gate.cell(id).submodule);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSix, PaperDesignTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Trace-level invariants.
// ---------------------------------------------------------------------------

TEST(TraceProperty, TransitionsConsistentWithValues) {
  const netlist::Netlist gate = designgen::generate_design(
      designgen::paper_design_spec(1, 0.002), lib());
  sim::CycleSimulator sim(gate);
  sim::StimulusGenerator stim(gate, sim::make_w1());
  const auto t = sim.run(stim, 40);
  const auto& clock_mask = sim.clock_net_mask();
  for (netlist::NetId n = 0; n < gate.num_nets(); ++n) {
    for (int c = 1; c < 40; ++c) {
      if (clock_mask[n]) {
        // Clock nets carry 0 or 2 transitions, never 1.
        EXPECT_NE(t.transitions(c, n), 1);
      } else {
        // Data nets: exactly one transition iff the value changed.
        const bool changed = t.value(c, n) != t.value(c - 1, n);
        EXPECT_EQ(t.transitions(c, n), changed ? 1 : 0)
            << gate.net(n).name << " cycle " << c;
      }
    }
  }
}

TEST(TraceProperty, TieNetsNeverToggle) {
  const netlist::Netlist gate = designgen::generate_design(
      designgen::paper_design_spec(2, 0.002), lib());
  sim::CycleSimulator sim(gate);
  sim::StimulusGenerator stim(gate, sim::make_w2());
  const auto t = sim.run(stim, 30);
  for (netlist::CellInstId id = 0; id < gate.num_cells(); ++id) {
    const auto f = gate.lib_cell(id).func;
    if (f != liberty::CellFunc::kTieHi && f != liberty::CellFunc::kTieLo) continue;
    const netlist::NetId out = gate.output_net(id);
    EXPECT_EQ(t.total_transitions(out), 0);
    EXPECT_EQ(t.value(10, out), f == liberty::CellFunc::kTieHi);
  }
}

// ---------------------------------------------------------------------------
// Liberty parser robustness sweep over malformed inputs.
// ---------------------------------------------------------------------------

class LibertyMalformedTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LibertyMalformedTest, ThrowsInsteadOfCrashingOrHanging) {
  EXPECT_THROW(liberty::parse_library(GetParam()), std::exception);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LibertyMalformedTest,
    ::testing::Values("", "library", "library(", "library(x)", "library(x) {",
                      "library(x) { cell(", "library(x) { cell(Y) { ",
                      "library(x) { a : 1 }", "library(x) { \"unterminated",
                      "library(x) { /* open comment }",
                      "library(x) { cell(Y) { cell_function : \"NOPE\"; } }",
                      "notalibrary(x) { }"));

class VerilogMalformedTest : public ::testing::TestWithParam<const char*> {};

TEST_P(VerilogMalformedTest, ThrowsInsteadOfCrashingOrHanging) {
  EXPECT_THROW(netlist::parse_verilog(GetParam(), lib()), std::exception);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VerilogMalformedTest,
    ::testing::Values("", "module", "module x", "module x (", "module x ();",
                      "module x (); wire", "module x (); wire a;",
                      "module x (); INV_X1 u0", "module x (); INV_X1 u0 (",
                      "module x (); INV_X1 u0 (.A(a)); endmodule",
                      "module x (); (* submodule = *) endmodule",
                      "module x (a); input a; input a2; NAND2_X1 u0 (.A(a), "
                      ".B(a2), .Y(a)); endmodule"));

// Writer/parser fixed point at the serving benchmark's design size. The text
// is parsed from a temporary copy that is gone before the write, which reads
// every net, cell, sub-module and component name: under ASan a name still
// viewing the input text fails here.
class VerilogTextRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(VerilogTextRoundTripTest, WriteOfParseReproducesText) {
  const std::string text = netlist::write_verilog(designgen::generate_design(
      designgen::paper_design_spec(GetParam(), 0.0025), lib()));
  const netlist::Netlist back = netlist::parse_verilog(std::string(text), lib());
  EXPECT_EQ(netlist::write_verilog(back), text);
}

INSTANTIATE_TEST_SUITE_P(C1toC4, VerilogTextRoundTripTest, ::testing::Range(1, 5));

/// A few cells over two sub-modules, one of them without a component, plus
/// an untagged cell: every construct the writer emits, in about 1 KB.
netlist::Netlist small_tagged_design() {
  netlist::Netlist nl("mut", lib());
  const int exec = nl.add_component("exec");
  const netlist::SubmoduleId alu = nl.add_submodule("alu_0", "alu", exec);
  const netlist::SubmoduleId regs = nl.add_submodule("regs_0", "regfile", -1);
  const auto net = [&](const char* name) { return nl.add_net(name); };
  const netlist::NetId clk = net("clk"), a = net("a"), b = net("b");
  for (const netlist::NetId pi : {clk, a, b}) nl.mark_primary_input(pi);
  nl.set_clock_net(clk);
  const netlist::NetId n0 = net("n0"), n1 = net("n1"), n2 = net("n2");
  const netlist::NetId q0 = net("q0"), q1 = net("q1"), y = net("y");
  for (const netlist::NetId po : {q0, y}) nl.mark_primary_output(po);
  nl.add_cell("u0", lib().must("NAND2_X1"), {a, b, n0}, alu);
  nl.add_cell("u1", lib().must("INV_X1"), {n0, n1}, alu);
  nl.add_cell("u2", lib().must("NAND2_X1"), {n1, q1, n2}, alu);
  nl.add_cell("r0", lib().must("DFF_X1"), {n2, clk, q0}, regs);
  nl.add_cell("r1", lib().must("DFF_X1"), {n1, clk, q1}, regs);
  nl.add_cell("u3", lib().must("INV_X1"), {q1, y});
  nl.check();
  return nl;
}

// Seeded mutations of writer output: byte flips, span deletes, span
// duplicates and truncations. Each input is rejected with a VerilogParseError
// (any other exception fails the test) or accepted, and the writer's text
// for an accepted netlist parses back to the same text.
TEST(VerilogMutationProperty, RejectsTypedOrRoundTrips) {
  const std::string bases[] = {
      netlist::write_verilog(small_tagged_design()),
      "// header\n(* clock_net = \"ck\" *)\nmodule m (ck, a, y);\n"
      "  input ck; input a; output y;\n  /* block\n comment */ wire n;\n"
      "  (* submodule = \"s0\", role = misc, component = \"c0\" *)\n"
      "  INV_X1 u0 (.A(a), .Y(n));\n  DFF_X1 r0 (.D(n), .CK(ck), .Q(y));\n"
      "endmodule\n"};
  // Flipped bytes are drawn half from the grammar's own characters.
  constexpr std::string_view kGrammar = "()*\"/;,.= \n_0aAinputoutputwire";
  util::Rng rng(0x5eed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = bases[i % 2];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.next_below(text.size());
      const std::size_t len =
          std::min<std::size_t>(1 + rng.next_below(16), text.size() - at);
      switch (rng.next_below(4)) {
        case 0:
          text[at] = rng.next_bool()
                         ? static_cast<char>(rng.next_below(256))
                         : kGrammar[rng.next_below(kGrammar.size())];
          break;
        case 1: text.erase(at, len); break;
        case 2: text.insert(at + len, text.substr(at, len)); break;
        default: text.resize(at); break;
      }
    }
    std::optional<netlist::Netlist> nl;
    try {
      nl.emplace(netlist::parse_verilog(text, lib()));
    } catch (const netlist::VerilogParseError&) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string once = netlist::write_verilog(*nl);
    ASSERT_EQ(netlist::write_verilog(netlist::parse_verilog(once, lib())), once)
        << "mutated input:\n" << text;
  }
  // Both outcomes stay well exercised (159 and 1841 at this seed).
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// ---------------------------------------------------------------------------
// ATSP wire codecs under seeded mutation.
// ---------------------------------------------------------------------------

/// A valid sample of one ATSP payload type and its decoder.
struct WireCodec {
  serve::MsgType type;
  std::string payload;
  void (*decode)(const std::string&);
};

std::vector<WireCodec> wire_codecs() {
  using namespace serve;
  std::vector<WireCodec> out;
  PredictRequest predict;
  predict.model = "tiny";
  predict.netlist_verilog = "module m (a, y);\n  input a;\n  output y;\n"
                            "  INV_X1 u0 (.A(a), .Y(y));\nendmodule\n";
  predict.workload = "w1";
  predict.cycles = 20;
  predict.want_submodules = true;
  out.push_back({MsgType::kPredict, predict.encode(),
                 [](const std::string& p) { PredictRequest::decode(p); }});
  StreamBeginRequest begin;
  begin.model = "tiny";
  begin.format = TraceFormat::kToggleDelta;
  begin.cycles = 8;
  begin.trace_bytes = 100;
  begin.design_hash = 0x1234;
  out.push_back({MsgType::kStreamBegin, begin.encode(),
                 [](const std::string& p) { StreamBeginRequest::decode(p); }});
  out.push_back({MsgType::kStreamChunk, StreamChunk{3, "chunk-bytes"}.encode(),
                 [](const std::string& p) { StreamChunk::decode(p); }});
  out.push_back({MsgType::kStreamEnd, StreamEndRequest{2, 200}.encode(),
                 [](const std::string& p) { StreamEndRequest::decode(p); }});
  out.push_back({MsgType::kLoadModel,
                 LoadModelRequest{"m", "/models/m.bin", "cells.lib"}.encode(),
                 [](const std::string& p) { LoadModelRequest::decode(p); }});
  out.push_back({MsgType::kUnloadModel, UnloadModelRequest{"m"}.encode(),
                 [](const std::string& p) { UnloadModelRequest::decode(p); }});
  out.push_back({MsgType::kStreamAck, StreamAck{1, 64}.encode(),
                 [](const std::string& p) { StreamAck::decode(p); }});
  PredictResponse ok;
  ok.cache_flags = kCacheHitDesign;
  ok.num_cycles = 3;
  ok.num_submodules = 1;
  ok.design = {{1.0, 2.0, 3.0, 0.0}, {0.5, 0.25, 0.0, 0.0}, {}};
  ok.submodule = {{0.1, 0.2, 0.3, 0.0}};
  out.push_back({MsgType::kPredictOk, ok.encode(),
                 [](const std::string& p) { PredictResponse::decode(p); }});
  ModelListResponse models;
  models.models = {{"tiny", 32, "cells", 1, 0xabc}, {"big", 16, "lib", 2, 7}};
  out.push_back({MsgType::kModelList, models.encode(),
                 [](const std::string& p) { ModelListResponse::decode(p); }});
  HealthResponse health;
  health.registry_generation = 3;
  health.num_models = 2;
  health.queue_depth = 1;
  health.draining = true;
  out.push_back({MsgType::kHealthReport, health.encode(),
                 [](const std::string& p) { HealthResponse::decode(p); }});
  out.push_back({MsgType::kError,
                 ErrorResponse{ErrorCode::kOverloaded, "shed"}.encode(),
                 [](const std::string& p) { ErrorResponse::decode(p); }});
  return out;
}

/// A FrameExt with every field present.
serve::FrameExt full_frame_ext() {
  serve::FrameExt full;
  full.trace.trace_hi = 0x0123456789abcdefull;
  full.trace.trace_lo = 0xfedcba9876543210ull;
  full.trace.span_id = 0xc0ffee;
  full.trace.sampled = true;
  full.want_timing = true;
  full.want_queue_depth = true;
  full.timing.emplace().total_us = 200;
  full.load.emplace().load = 3;
  return full;
}

/// 1-3 seeded edits: byte flips, span deletes, span duplicates and
/// truncations. Edits land inside [lo, hi) when that range is non-empty.
void mutate(std::string& bytes, util::Rng& rng, std::size_t lo, std::size_t hi) {
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    if (hi > bytes.size()) hi = bytes.size();
    const bool ranged = lo < hi;
    const std::size_t at =
        ranged ? lo + rng.next_below(hi - lo) : rng.next_below(bytes.size());
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(8), bytes.size() - at);
    switch (rng.next_below(4)) {
      case 0: bytes[at] = static_cast<char>(rng.next_below(256)); break;
      case 1: bytes.erase(at, len); break;
      case 2: bytes.insert(at + len, bytes.substr(at, len)); break;
      default: bytes.resize(at); break;
    }
  }
}

/// Runs `fn` and reports whether it was accepted (true) or rejected with
/// `Error` (false). Any other exception fails the test; the largest single
/// allocation made meanwhile must stay within `alloc_cap`.
template <typename Error = serve::ProtocolError, typename Fn>
bool decodes_or_rejects(Fn&& fn, std::size_t alloc_cap, const std::string& input) {
  bool accepted = true;
  AllocTracker tracker;
  try {
    fn();
  } catch (const Error&) {
    accepted = false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception " << e.what() << " on "
                  << util::hash_hex(util::fnv1a64(input));
  }
  EXPECT_LE(tracker.largest(), alloc_cap)
      << "allocation past the cap on " << util::hash_hex(util::fnv1a64(input));
  return accepted;
}

// Every ATSP payload decoder over mutated valid payloads: each input
// decodes or throws ProtocolError — no other exception, no crash, and no
// allocation beyond the default frame cap (the largest a payload can be).
TEST(AtspMutationProperty, PayloadsDecodeOrThrowProtocolError) {
  const std::vector<WireCodec> codecs = wire_codecs();
  util::Rng rng(0xa75b);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 3300; ++i) {
    const WireCodec& codec = codecs[static_cast<std::size_t>(i) % codecs.size()];
    std::string bytes = codec.payload;
    mutate(bytes, rng, 0, 0);
    const bool ok = decodes_or_rejects([&] { codec.decode(bytes); },
                                       serve::kDefaultMaxFrameBytes, bytes);
    (ok ? accepted : rejected) += 1;
  }
  // Both outcomes stay well exercised (270 and 3030 at this seed).
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

// Whole frames through read_frame over a socket pair, with edits aimed at
// the header's length fields, the extension block, or anywhere. read_frame
// runs with a small body cap, so no allocation may exceed it; frames that
// survive are decoded with their type's payload decoder.
TEST(AtspMutationProperty, FramesDecodeOrThrowProtocolError) {
  const std::vector<WireCodec> codecs = wire_codecs();
  constexpr std::size_t kCap = 1 << 16;
  const serve::FrameExt full = full_frame_ext();
  util::Rng rng(0xf4a3e);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const WireCodec& codec = codecs[static_cast<std::size_t>(i) % codecs.size()];
    const bool with_ext = rng.next_bool();
    std::string wire = serve::encode_frame(codec.type, codec.payload,
                                           with_ext ? full : serve::FrameExt{});
    const std::size_t ext_at = serve::kFrameHeaderBytes + codec.payload.size();
    switch (rng.next_below(3)) {
      case 0: mutate(wire, rng, 8, serve::kFrameHeaderBytes); break;
      case 1: mutate(wire, rng, with_ext ? ext_at : 0, with_ext ? wire.size() : 0); break;
      default: mutate(wire, rng, 0, 0); break;
    }
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    util::Socket tx(fds[0]);
    util::Socket rx(fds[1]);
    tx.send_all(wire.data(), wire.size());
    tx.shutdown_both();
    bool more = true;
    while (more) {
      serve::Frame frame;
      const bool ok = decodes_or_rejects(
          [&] { more = serve::read_frame(rx, frame, kCap); }, kCap + 1, wire);
      if (!ok) {
        ++rejected;
        break;
      }
      if (!more) break;
      ++accepted;
      for (const WireCodec& c : codecs) {
        if (c.type != frame.type) continue;
        decodes_or_rejects([&] { c.decode(frame.payload); },
                           serve::kDefaultMaxFrameBytes, wire);
      }
    }
  }
  // 572 frames read and 2787 inputs rejected at this seed.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 1000);
}

// ---------------------------------------------------------------------------
// Trace decoders under seeded mutation.
// ---------------------------------------------------------------------------

constexpr int kTraceCycles = 8;
constexpr int kMaxTraceCycles = 12;

/// A design plus the VCD text and ATDT bytes of an 8-cycle simulated trace.
struct TraceSample {
  netlist::Netlist nl;
  std::string vcd;
  std::string atdt;
};

std::vector<TraceSample> trace_samples() {
  designgen::DesignSpec spec;
  spec.name = "trace_mut";
  spec.seed = 23;
  spec.target_cells = 300;
  spec.num_memories = 1;
  std::vector<TraceSample> out;
  out.push_back({small_tagged_design(), {}, {}});
  out.push_back({designgen::generate_design(spec, lib()), {}, {}});
  for (TraceSample& sample : out) {
    sim::CycleSimulator sim(sample.nl);
    sim::StimulusGenerator stim(sample.nl, sim::make_w1());
    const sim::ToggleTrace t = sim.run(stim, kTraceCycles);
    sample.vcd = sim::write_vcd(sample.nl, t, sim.clock_net_mask());
    sample.atdt = sim::write_delta(sample.nl, t, sim.clock_net_mask());
  }
  return out;
}

/// The oracle's allocation cap: max_cycles + 1 rows of levels, or the
/// input itself, whichever is larger.
std::size_t trace_alloc_cap(const netlist::Netlist& nl,
                            const std::string& input) {
  return std::max((kMaxTraceCycles + 1) * nl.num_nets(), input.size());
}

// Mutated write_vcd text, with edits aimed at the value changes or anywhere:
// each input replays within the cycle cap or throws TraceError.
TEST(TraceMutationProperty, VcdDecodesOrThrowsTraceError) {
  const std::vector<TraceSample> samples = trace_samples();
  util::Rng rng(0x7ace);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const TraceSample& sample = samples[static_cast<std::size_t>(i) % 2];
    std::string text = sample.vcd;
    if (rng.next_bool()) {
      mutate(text, rng, text.find("$enddefinitions"), text.size());
    } else {
      mutate(text, rng, 0, 0);
    }
    std::optional<sim::ToggleTrace> trace;
    const bool ok = decodes_or_rejects<sim::TraceError>(
        [&] { trace.emplace(sim::parse_vcd(text, sample.nl, kMaxTraceCycles)); },
        trace_alloc_cap(sample.nl, text), text);
    (ok ? accepted : rejected) += 1;
    if (!ok || !trace) continue;
    EXPECT_EQ(trace->num_nets(), sample.nl.num_nets());
    EXPECT_LE(trace->num_cycles(), kMaxTraceCycles);
  }
  // Both outcomes stay well exercised (1174 and 1826 at this seed).
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

// Mutated write_delta bytes, with edits aimed at the header, the records or
// anywhere: each input decodes or throws TraceError, and every input
// parse_delta accepts, validate_delta accepts with the same cycle count.
TEST(TraceMutationProperty, DeltaDecodesOrThrowsTraceError) {
  const std::vector<TraceSample> samples = trace_samples();
  util::Rng rng(0xde17a);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 6000; ++i) {
    const TraceSample& sample = samples[static_cast<std::size_t>(i) % 2];
    std::string bytes = sample.atdt;
    // Magic, version, num_nets (one or two varint bytes), num_cycles, hash.
    const std::size_t header = 4 + 1 + (sample.nl.num_nets() < 128 ? 1 : 2) + 1 + 8;
    switch (rng.next_below(3)) {
      case 0: mutate(bytes, rng, 0, header); break;
      case 1: mutate(bytes, rng, header, bytes.size()); break;
      default: mutate(bytes, rng, 0, 0); break;
    }
    const std::size_t cap = trace_alloc_cap(sample.nl, bytes);
    std::optional<sim::ToggleTrace> trace;
    const bool ok = decodes_or_rejects<sim::TraceError>(
        [&] { trace.emplace(sim::parse_delta(bytes, sample.nl, kMaxTraceCycles)); },
        cap, bytes);
    (ok ? accepted : rejected) += 1;
    int validated = -1;
    const bool valid = decodes_or_rejects<sim::TraceError>(
        [&] { validated = sim::validate_delta(bytes, kMaxTraceCycles); }, cap,
        bytes);
    if (!ok || !trace) continue;
    EXPECT_TRUE(valid) << util::hash_hex(util::fnv1a64(bytes));
    EXPECT_EQ(validated, trace->num_cycles());
    EXPECT_EQ(trace->num_nets(), sample.nl.num_nets());
  }
  // Most edits break the strict framing; both outcomes stay exercised (171
  // and 5829 at this seed).
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

// ---------------------------------------------------------------------------
// Liberty and SPEF text under seeded mutation.
// ---------------------------------------------------------------------------

/// Room for an error message that quotes an input word via util::excerpt:
/// the allocation cap of a text decoder never drops below it.
constexpr std::size_t kErrorMessageBytes = 256;

// Mutated write_liberty text of the default library: each input parses to a
// library or is rejected, as a LibertyParseError or as the
// std::invalid_argument the library model throws for a well-formed file it
// cannot hold (an unknown cell function, a duplicate cell, a LUT whose index
// and values differ in length). Allocations stay within a small multiple of
// the input, and an accepted library's own text is a write/parse fixed point.
TEST(LibertyMutationProperty, ParsesOrRejectsTyped) {
  const std::string seed = liberty::write_liberty(liberty::make_default_library());
  util::Rng rng(0x11b);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    std::string text = seed;
    mutate(text, rng, 0, 0);
    std::optional<liberty::Library> parsed;
    const bool ok = decodes_or_rejects<liberty::LibertyParseError>(
        [&] {
          try {
            parsed.emplace(liberty::parse_library(text));
          } catch (const std::invalid_argument& e) {
            throw liberty::LibertyParseError(e.what(), 0);
          }
        },
        std::max<std::size_t>(4 * text.size(), kErrorMessageBytes), text);
    (ok ? accepted : rejected) += 1;
    if (!ok || !parsed) continue;
    const std::string once = liberty::write_liberty(*parsed);
    ASSERT_EQ(liberty::write_liberty(liberty::parse_library(once)), once)
        << "mutated input " << util::hash_hex(util::fnv1a64(text));
  }
  // Both outcomes stay well exercised (265 and 1235 at this seed).
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// Mutated write_spef text of a small design's extracted parasitics, with
// edits aimed at the *D_NET sections or anywhere: each input parses or
// throws std::runtime_error, and every cap an accepted input yields is finite.
// Allocations stay within a small multiple of the input or of the netlist.
TEST(SpefMutationProperty, ParsesOrThrowsRuntimeError) {
  designgen::DesignSpec spec;
  spec.name = "spef_mut";
  spec.seed = 29;
  spec.target_cells = 300;
  const layout::LayoutResult laid =
      layout::run_layout(designgen::generate_design(spec, lib()));
  const std::string seed = layout::write_spef(laid.netlist, laid.parasitics);
  const std::size_t dnets_at = seed.find("*D_NET");
  // The parser sizes its by-name index and its per-net caps by the netlist,
  // whatever the text: the cap is a small multiple of that or of the input.
  const auto cap = [&](const std::string& text) {
    return std::max({4 * text.size(),
                     4 * sizeof(double) * laid.netlist.num_nets(),
                     kErrorMessageBytes});
  };
  ASSERT_NE(dnets_at, std::string::npos);
  util::Rng rng(0x5bef);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    std::string text = seed;
    if (rng.next_bool()) {
      mutate(text, rng, dnets_at, text.size());
    } else {
      mutate(text, rng, 0, 0);
    }
    std::optional<layout::Parasitics> parsed;
    const bool ok = decodes_or_rejects<std::runtime_error>(
        [&] { parsed.emplace(layout::parse_spef(text, laid.netlist)); },
        cap(text), text);
    (ok ? accepted : rejected) += 1;
    if (!ok || !parsed) continue;
    ASSERT_EQ(parsed->wire_cap_ff.size(), laid.netlist.num_nets());
    for (const double cap : parsed->wire_cap_ff) {
      ASSERT_TRUE(std::isfinite(cap))
          << "mutated input " << util::hash_hex(util::fnv1a64(text));
    }
  }
  // Both outcomes stay well exercised (510 and 990 at this seed).
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// ---------------------------------------------------------------------------
// Byte formats pinned: ATSP payloads, a framed extension, a saved model and
// an ATDT toggle-delta trace.
// ---------------------------------------------------------------------------

/// An untrained d = 16 encoder plus three small heads fitted on seeded rows
/// of the ct/comb/reg widths: a whole artifact that costs no training.
core::AtlasModel tiny_model() {
  constexpr std::size_t kDim = 16;
  ml::SgFormer::Config enc;
  enc.in_dim = graph::kFeatureDim;
  enc.dim = kDim;
  enc.seed = 5;
  ml::GbdtConfig gbdt;
  gbdt.n_trees = 3;
  gbdt.max_depth = 2;
  gbdt.n_bins = 8;
  util::Rng rng(0x7e57);
  const auto head = [&](std::size_t width) {
    ml::Matrix x(48, width);
    std::vector<double> y(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < width; ++j) {
        x.at(i, j) = static_cast<float>(rng.next_double());
      }
      y[i] = 2.0 * x.at(i, 0) - x.at(i, width - 1);
    }
    ml::GbdtRegressor h(gbdt);
    h.fit(x, y);
    return h;
  };
  core::GroupModels heads{head(core::ct_dim(kDim)), head(core::comb_dim(kDim)),
                          head(core::reg_dim(kDim))};
  return core::AtlasModel(ml::SgFormer(enc), std::move(heads));
}

/// The bytes AtlasModel::save writes for `model`.
std::string saved_bytes(const core::AtlasModel& model) {
  const std::string path = ::testing::TempDir() + "/property_tiny_model.bin";
  model.save(path);
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Wire, trace and artifact bytes are a compatibility surface: a peer, a
// saved model or a recorded trace from an older build must keep decoding.
// These hashes were recorded before the codec and the trace decoders were
// rewritten; a change to any of them is a format change, not a refactor.
TEST(FormatPin, WireAndArtifactBytesHashToRecordedValues) {
  const std::vector<WireCodec> codecs = wire_codecs();
  const std::vector<std::uint64_t> payload_hashes = {
      0x9b0419e11d348e35ull, 0xbc2c41523f84f387ull, 0xa0f48759ba0f1da4ull,
      0x5a07ca5a121b7eafull, 0xac40e5a1203aba3dull, 0x529a51dc8ff5728bull,
      0xf7d3cc3409bcd464ull, 0x3e94eaabf3ab54f9ull, 0x785d94bc6a604cf4ull,
      0x228de977e947dec4ull, 0xe54a854ba9e7f0d1ull};
  ASSERT_EQ(codecs.size(), payload_hashes.size());
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    EXPECT_EQ(util::hash_hex(util::fnv1a64(codecs[i].payload)),
              util::hash_hex(payload_hashes[i]))
        << "payload of message type " << static_cast<int>(codecs[i].type);
  }
  const std::string frame = serve::encode_frame(
      serve::MsgType::kPredict, codecs[0].payload, full_frame_ext());
  EXPECT_EQ(util::hash_hex(util::fnv1a64(frame)),
            util::hash_hex(0x1fc9842dc61bd516ull));
  EXPECT_EQ(util::hash_hex(util::fnv1a64(saved_bytes(tiny_model()))),
            util::hash_hex(0x7d96fb8baddf12d0ull));
  const netlist::Netlist gate = designgen::generate_design(
      designgen::paper_design_spec(1, 0.002), lib());
  sim::CycleSimulator sim(gate);
  sim::StimulusGenerator stim(gate, sim::make_w1());
  const std::string atdt =
      sim::write_delta(gate, sim.run(stim, 24), sim.clock_net_mask());
  EXPECT_EQ(util::hash_hex(util::fnv1a64(atdt)),
            util::hash_hex(0xfd6b495767d22d77ull));
}

// Model artifacts under seeded mutation, through the decode AtlasModel::load
// runs on a file's bytes: each input decodes or throws SerializeError, and
// no single allocation is larger than the seed artifact (a declared size can
// only claim bytes that are there). Edits aim at the encoder's config, at the
// GBDT heads, or anywhere; the heads of an accepted model are evaluated on
// a row of their width, which ASan checks for reads out of bounds.
TEST(ArtifactMutationProperty, ModelsDecodeOrThrowSerializeError) {
  const core::AtlasModel seed = tiny_model();
  const std::string artifact = seed.to_bytes();
  std::string encoder;
  util::ByteWriter encoder_out(encoder);
  seed.encoder().save(encoder_out);
  constexpr std::size_t kHeader = 8;                // "ATLS" + version
  constexpr std::size_t kEncoderConfig = 8 + 4 * 8;  // "SGFM" + version + config
  const std::size_t heads_at = kHeader + encoder.size();
  util::Rng rng(0xa271f);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string bytes = artifact;
    switch (rng.next_below(3)) {
      case 0: mutate(bytes, rng, kHeader, kHeader + kEncoderConfig); break;
      case 1: mutate(bytes, rng, heads_at, bytes.size()); break;
      default: mutate(bytes, rng, 0, 0); break;
    }
    std::optional<core::AtlasModel> model;
    const bool ok = decodes_or_rejects<util::SerializeError>(
        [&] { model.emplace(core::AtlasModel::from_bytes(bytes)); },
        artifact.size(), bytes);
    (ok ? accepted : rejected) += 1;
    if (!ok || !model) continue;
    const std::vector<float> row(core::comb_dim(model->encoder().dim()), 0.5f);
    for (const ml::GbdtRegressor* head :
         {&model->models().f_ct, &model->models().f_comb, &model->models().f_reg}) {
      double out = 0.0;
      head->predict_rows(row.data(), 1, row.size(), &out);
    }
  }
  // Both outcomes stay well exercised (176 and 2824 at this seed).
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

// ---------------------------------------------------------------------------
// Library physics properties.
// ---------------------------------------------------------------------------

TEST(LibraryProperty, StrongerDrivesHaveMoreCapAreaLeakage) {
  const auto& l = lib();
  for (liberty::CellId id = 0; id < l.size(); ++id) {
    const auto up = l.next_drive_up(id);
    if (!up) continue;
    const auto& a = l.cell(id);
    const auto& b = l.cell(*up);
    EXPECT_GT(b.area_um2, a.area_um2) << a.name;
    EXPECT_GT(b.leakage_uw, a.leakage_uw) << a.name;
    const int out_a = a.output_pin();
    const int out_b = b.output_pin();
    if (out_a >= 0 && out_b >= 0) {
      EXPECT_GE(b.pins[static_cast<std::size_t>(out_b)].max_cap_ff,
                a.pins[static_cast<std::size_t>(out_a)].max_cap_ff)
          << a.name;
    }
  }
}

TEST(LibraryProperty, EnergyLutsAscendInLoad) {
  const auto& l = lib();
  for (liberty::CellId id = 0; id < l.size(); ++id) {
    const auto& c = l.cell(id);
    for (std::size_t i = 1; i < c.energy_index_ff.size(); ++i) {
      EXPECT_GT(c.energy_index_ff[i], c.energy_index_ff[i - 1]) << c.name;
      EXPECT_GE(c.energy_fj[i], c.energy_fj[i - 1]) << c.name;
    }
  }
}

TEST(LibraryProperty, EveryCombCellEvaluatesAllInputPatterns) {
  const auto& l = lib();
  for (liberty::CellId id = 0; id < l.size(); ++id) {
    const auto f = l.cell(id).func;
    if (!liberty::is_combinational(f) || liberty::is_clock_cell(f)) continue;
    const int n = liberty::comb_input_count(f);
    for (int pattern = 0; pattern < (1 << n); ++pattern) {
      bool in[3];
      for (int b = 0; b < n; ++b) in[b] = (pattern >> b) & 1;
      EXPECT_NO_THROW(liberty::eval_comb(f, in, n));
    }
  }
}

TEST(LibraryProperty, DualGatePairsAreComplements) {
  using liberty::CellFunc;
  const std::pair<CellFunc, CellFunc> duals[] = {
      {CellFunc::kAnd2, CellFunc::kNand2}, {CellFunc::kOr2, CellFunc::kNor2},
      {CellFunc::kAnd3, CellFunc::kNand3}, {CellFunc::kOr3, CellFunc::kNor3},
      {CellFunc::kXor2, CellFunc::kXnor2}};
  for (const auto& [pos, neg] : duals) {
    const int n = liberty::comb_input_count(pos);
    for (int pattern = 0; pattern < (1 << n); ++pattern) {
      bool in[3];
      for (int b = 0; b < n; ++b) in[b] = (pattern >> b) & 1;
      EXPECT_NE(liberty::eval_comb(pos, in, n), liberty::eval_comb(neg, in, n));
    }
  }
}

// ---------------------------------------------------------------------------
// Internal-energy LUT interpolation: the library.h contract is "linear
// interpolation, clamped extrapolation" — swept over random LUTs and loads.
// ---------------------------------------------------------------------------

class EnergyLutTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// A single-cell library whose LUT has `knots` strictly increasing index
  /// points and random non-negative energies.
  static liberty::Library lut_library(util::Rng& rng, int knots) {
    liberty::Library l("lut_test");
    liberty::Cell c;
    c.name = "LUT_X1";
    double x = rng.next_double(0.1, 2.0);
    for (int i = 0; i < knots; ++i) {
      c.energy_index_ff.push_back(x);
      c.energy_fj.push_back(rng.next_double(0.0, 50.0));
      x += rng.next_double(0.5, 10.0);
    }
    l.add_cell(std::move(c));
    return l;
  }
};

TEST_P(EnergyLutTest, ClampedExtrapolationAtBothEnds) {
  util::Rng rng(GetParam());
  for (const int knots : {1, 2, 3, 7}) {
    const liberty::Library l = lut_library(rng, knots);
    const auto& c = l.cell(0);
    const double lo = c.energy_index_ff.front();
    const double hi = c.energy_index_ff.back();
    // Below the first knot (including 0 and negative loads): first energy.
    EXPECT_EQ(l.internal_energy_fj(0, lo - rng.next_double(0.0, 100.0)),
              c.energy_fj.front());
    EXPECT_EQ(l.internal_energy_fj(0, lo), c.energy_fj.front());
    // Above the last knot: last energy, no matter how far out.
    EXPECT_EQ(l.internal_energy_fj(0, hi + rng.next_double(0.0, 1e6)),
              c.energy_fj.back());
    EXPECT_EQ(l.internal_energy_fj(0, hi), c.energy_fj.back());
  }
}

TEST_P(EnergyLutTest, ExactAtKnotsAndBoundedBetweenThem) {
  util::Rng rng(GetParam());
  const liberty::Library l = lut_library(rng, 6);
  const auto& c = l.cell(0);
  for (std::size_t i = 0; i < c.energy_index_ff.size(); ++i) {
    EXPECT_NEAR(l.internal_energy_fj(0, c.energy_index_ff[i]), c.energy_fj[i],
                1e-9);
  }
  // Any interior load lands within [min, max] of its bracketing knots, and
  // linearity holds: the midpoint is the average of the segment endpoints.
  for (std::size_t i = 0; i + 1 < c.energy_index_ff.size(); ++i) {
    const double x0 = c.energy_index_ff[i], x1 = c.energy_index_ff[i + 1];
    const double y0 = c.energy_fj[i], y1 = c.energy_fj[i + 1];
    const double load = rng.next_double(x0, x1);
    const double y = l.internal_energy_fj(0, load);
    EXPECT_GE(y, std::min(y0, y1) - 1e-9);
    EXPECT_LE(y, std::max(y0, y1) + 1e-9);
    EXPECT_NEAR(l.internal_energy_fj(0, 0.5 * (x0 + x1)), 0.5 * (y0 + y1),
                1e-9);
  }
}

TEST_P(EnergyLutTest, EmptyLutDrawsNoEnergy) {
  liberty::Library l("lut_test");
  liberty::Cell c;
  c.name = "MACRO";  // macros carry no LUT (access energies instead)
  l.add_cell(std::move(c));
  util::Rng rng(GetParam());
  EXPECT_EQ(l.internal_energy_fj(0, rng.next_double(0.0, 100.0)), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyLutTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace atlas
