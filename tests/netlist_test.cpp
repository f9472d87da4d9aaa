#include <gtest/gtest.h>

#include "liberty/library.h"
#include "netlist/netlist.h"
#include "netlist/verilog_io.h"

namespace atlas::netlist {
namespace {

using liberty::CellFunc;

class NetlistTest : public ::testing::Test {
 protected:
  NetlistTest() : lib_(liberty::make_default_library()), nl_("t", lib_) {}

  /// Tiny circuit: pi0, pi1 -> NAND -> INV -> DFF(clk) -> po.
  void build_small() {
    clk_ = nl_.add_net("clk");
    nl_.mark_primary_input(clk_);
    nl_.set_clock_net(clk_);
    pi0_ = nl_.add_net("pi0");
    pi1_ = nl_.add_net("pi1");
    nl_.mark_primary_input(pi0_);
    nl_.mark_primary_input(pi1_);
    n1_ = nl_.add_net("n1");
    n2_ = nl_.add_net("n2");
    q_ = nl_.add_net("q");
    nl_.mark_primary_output(q_);
    nand_ = nl_.add_cell("u_nand", lib_.must("NAND2_X1"), {pi0_, pi1_, n1_});
    inv_ = nl_.add_cell("u_inv", lib_.must("INV_X1"), {n1_, n2_});
    dff_ = nl_.add_cell("u_dff", lib_.must("DFF_X1"), {n2_, clk_, q_});
  }

  liberty::Library lib_;
  Netlist nl_;
  NetId clk_{}, pi0_{}, pi1_{}, n1_{}, n2_{}, q_{};
  CellInstId nand_{}, inv_{}, dff_{};
};

TEST_F(NetlistTest, ConstructionWiresDriversAndSinks) {
  build_small();
  EXPECT_EQ(nl_.num_cells(), 3u);
  EXPECT_EQ(nl_.num_nets(), 6u);
  const Net& n1 = nl_.net(n1_);
  EXPECT_TRUE(n1.has_driver());
  EXPECT_EQ(n1.driver.cell, nand_);
  ASSERT_EQ(n1.sinks.size(), 1u);
  EXPECT_EQ(n1.sinks[0].cell, inv_);
  EXPECT_EQ(nl_.output_net(nand_), n1_);
  EXPECT_EQ(nl_.output_net(inv_), n2_);
  EXPECT_EQ(nl_.output_net(dff_), q_);
  EXPECT_NO_THROW(nl_.check());
}

TEST_F(NetlistTest, AddCellRejectsWrongPinCount) {
  build_small();
  const NetId x = nl_.add_net("x");
  EXPECT_THROW(nl_.add_cell("bad", lib_.must("NAND2_X1"), {x, x}),
               std::invalid_argument);
}

TEST_F(NetlistTest, AddCellRejectsDoubleDriver) {
  build_small();
  // n1 is already driven by the NAND.
  EXPECT_THROW(nl_.add_cell("bad", lib_.must("INV_X1"), {pi0_, n1_}),
               std::invalid_argument);
}

TEST_F(NetlistTest, PrimaryInputCannotBeCellDriven) {
  build_small();
  EXPECT_THROW(nl_.add_cell("bad", lib_.must("INV_X1"), {n1_, pi0_}),
               std::invalid_argument);
  const NetId driven = nl_.add_net("driven");
  nl_.add_cell("drv", lib_.must("INV_X1"), {pi0_, driven});
  EXPECT_THROW(nl_.mark_primary_input(driven), std::invalid_argument);
}

TEST_F(NetlistTest, TopoOrderRespectsDependencies) {
  build_small();
  const auto order = nl_.comb_topo_order();
  ASSERT_EQ(order.size(), 2u);  // DFF not included
  EXPECT_EQ(order[0], nand_);
  EXPECT_EQ(order[1], inv_);
}

TEST_F(NetlistTest, CombCycleDetected) {
  build_small();
  // Create a loop: two inverters driving each other.
  const NetId a = nl_.add_net("a");
  const NetId b = nl_.add_net("b");
  nl_.add_cell("l1", lib_.must("INV_X1"), {a, b});
  nl_.add_cell("l2", lib_.must("INV_X1"), {b, a});
  EXPECT_THROW(nl_.comb_topo_order(), std::runtime_error);
  EXPECT_THROW(nl_.check(), std::runtime_error);
}

TEST_F(NetlistTest, SequentialLoopIsFine) {
  build_small();
  // q feeds back into the nand via move of pin: make a new inv from q to a
  // net feeding a second dff — registers legally break cycles.
  const NetId f = nl_.add_net("f");
  nl_.add_cell("u_fb", lib_.must("INV_X1"), {q_, f});
  const NetId q2 = nl_.add_net("q2");
  nl_.add_cell("u_dff2", lib_.must("DFF_X1"), {f, clk_, q2});
  EXPECT_NO_THROW(nl_.check());
}

TEST_F(NetlistTest, DisconnectAndCompact) {
  build_small();
  nl_.disconnect_cell(inv_);
  EXPECT_FALSE(nl_.net(n2_).has_driver());
  EXPECT_TRUE(nl_.net(n1_).sinks.empty());
  // n2 still sinks into the DFF, so it survives compaction; the INV is gone.
  nl_.compact();
  EXPECT_EQ(nl_.num_cells(), 2u);
  EXPECT_NO_THROW(nl_.comb_topo_order());
  // Clock net id stays valid after renumbering.
  EXPECT_NE(nl_.clock_net(), kNoNet);
  EXPECT_EQ(nl_.net(nl_.clock_net()).name, "clk");
}

TEST_F(NetlistTest, MovePinRewiresSinks) {
  build_small();
  // Move the INV input from n1 to pi0.
  nl_.move_pin(inv_, 0, pi0_);
  EXPECT_TRUE(nl_.net(n1_).sinks.empty());
  ASSERT_EQ(nl_.net(pi0_).sinks.size(), 2u);
  EXPECT_NO_THROW(nl_.check());
}

TEST_F(NetlistTest, ResizeCellKeepsConnectivity) {
  build_small();
  nl_.resize_cell(inv_, lib_.must("INV_X2"));
  EXPECT_EQ(nl_.lib_cell(inv_).drive, 2);
  EXPECT_NO_THROW(nl_.check());
  // Pin-incompatible swap rejected.
  EXPECT_THROW(nl_.resize_cell(inv_, lib_.must("NAND2_X1")),
               std::invalid_argument);
}

TEST_F(NetlistTest, CountsByTypeAndGroup) {
  build_small();
  const auto by_type = nl_.count_by_type();
  EXPECT_EQ(by_type[static_cast<std::size_t>(liberty::NodeType::kNand)], 1u);
  EXPECT_EQ(by_type[static_cast<std::size_t>(liberty::NodeType::kInv)], 1u);
  EXPECT_EQ(by_type[static_cast<std::size_t>(liberty::NodeType::kReg)], 1u);
  const auto by_group = nl_.count_by_group();
  EXPECT_EQ(by_group[static_cast<std::size_t>(liberty::PowerGroup::kComb)], 2u);
  EXPECT_EQ(by_group[static_cast<std::size_t>(liberty::PowerGroup::kRegister)], 1u);
}

TEST_F(NetlistTest, SubmoduleMembership) {
  const int comp = nl_.add_component("exec");
  const SubmoduleId sm = nl_.add_submodule("alu_0", "alu", comp);
  build_small();
  const NetId x = nl_.add_net("x");
  const CellInstId c = nl_.add_cell("u_in_sm", lib_.must("INV_X1"), {pi0_, x}, sm);
  const auto members = nl_.cells_in_submodule(sm);
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], c);
}

TEST_F(NetlistTest, PrimaryIoLists) {
  build_small();
  const auto pis = nl_.primary_inputs();
  EXPECT_EQ(pis.size(), 3u);  // clk, pi0, pi1
  const auto pos = nl_.primary_outputs();
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], q_);
}

class VerilogRoundTripTest : public NetlistTest {
 protected:
  /// The VerilogParseError parsing `text` raises. Any other exception type
  /// escapes and fails the test.
  VerilogParseError rejection(std::string_view text) {
    try {
      parse_verilog(text, lib_);
    } catch (const VerilogParseError& e) {
      return e;
    }
    ADD_FAILURE() << "accepted: " << text;
    return VerilogParseError("accepted", -1);
  }
};

TEST_F(VerilogRoundTripTest, WriteParseRoundTrip) {
  const int comp = nl_.add_component("exec");
  const SubmoduleId sm = nl_.add_submodule("alu_0", "alu", comp);
  build_small();
  const NetId x = nl_.add_net("x");
  nl_.add_cell("u_sm", lib_.must("INV_X1"), {pi0_, x}, sm);

  const std::string text = write_verilog(nl_);
  const Netlist back = parse_verilog(text, lib_);

  EXPECT_EQ(back.name(), nl_.name());
  EXPECT_EQ(back.num_cells(), nl_.num_cells());
  EXPECT_EQ(back.num_nets(), nl_.num_nets());
  EXPECT_NO_THROW(back.check());
  ASSERT_NE(back.clock_net(), kNoNet);
  EXPECT_EQ(back.net(back.clock_net()).name, "clk");
  EXPECT_EQ(back.primary_inputs().size(), nl_.primary_inputs().size());
  EXPECT_EQ(back.primary_outputs().size(), nl_.primary_outputs().size());
  // Sub-module metadata survives.
  ASSERT_EQ(back.submodules().size(), 1u);
  EXPECT_EQ(back.submodules()[0].name, "alu_0");
  EXPECT_EQ(back.submodules()[0].role, "alu");
  ASSERT_EQ(back.components().size(), 1u);
  EXPECT_EQ(back.components()[0], "exec");
  // Cell types preserved.
  for (CellInstId id = 0; id < back.num_cells(); ++id) {
    EXPECT_EQ(back.lib_cell(id).name, nl_.lib_cell(id).name);
  }
}

TEST_F(VerilogRoundTripTest, InputOutputNetIsFixedPointOnFirstRoundTrip) {
  // `a` is declared an output after output-only `q`; the re-parse numbers
  // inputs first, so the writer must list `a` ahead of `q` already.
  const char* text =
      "module m (q, a);\n  output q;\n  input a;\n  output a;\n"
      "  INV_X1 u0 (.A(a), .Y(q));\nendmodule\n";
  const std::string once = write_verilog(parse_verilog(text, lib_));
  const std::string twice = write_verilog(parse_verilog(once, lib_));
  EXPECT_EQ(once, twice);
  EXPECT_LT(once.find("output a;"), once.find("output q;")) << once;
  // The port list names each port once, though `a` is input and output.
  const std::string header = once.substr(once.find("module m ("));
  EXPECT_EQ(header.substr(0, header.find('\n')), "module m (a, q);") << once;
}

TEST_F(VerilogRoundTripTest, ParseErrors) {
  EXPECT_THROW(parse_verilog("module x (", lib_), VerilogParseError);
  EXPECT_THROW(parse_verilog("module x (); WAT u0 (.A(a)); endmodule", lib_),
               VerilogParseError);
  EXPECT_THROW(
      parse_verilog("module x (); wire a; INV_X1 u0 (.NOPE(a)); endmodule", lib_),
      VerilogParseError);
  // Unconnected pin.
  EXPECT_THROW(
      parse_verilog("module x (); wire a; INV_X1 u0 (.A(a)); endmodule", lib_),
      VerilogParseError);
}

// The Netlist's own construction checks surface as located parse errors.
TEST_F(VerilogRoundTripTest, NetlistRejectionsAreTypedAndLocated) {
  const VerilogParseError twice = rejection(
      "module x (a);\n  input a;\n  wire n;\n  INV_X1 u0 (.A(a), .Y(n));\n"
      "  INV_X1 u1 (.A(a), .Y(n));\nendmodule\n");
  EXPECT_EQ(twice.line(), 5);
  EXPECT_NE(std::string(twice.what()).find("net n already driven"), std::string::npos)
      << twice.what();

  // A primary input driven by a cell, declared before the cell...
  const VerilogParseError before = rejection(
      "module x (a, b);\n  input a;\n  input b;\n  INV_X1 u0 (.A(a), .Y(b));\n"
      "endmodule\n");
  EXPECT_EQ(before.line(), 4);
  EXPECT_NE(std::string(before.what()).find("net b already driven"), std::string::npos)
      << before.what();

  // ...and after it.
  const VerilogParseError after = rejection(
      "module x (a, b);\n  input a;\n  INV_X1 u0 (.A(a), .Y(b));\n"
      "  input\n    b;\nendmodule\n");
  EXPECT_EQ(after.line(), 5);
  EXPECT_NE(std::string(after.what()).find("already cell-driven: b"), std::string::npos)
      << after.what();
}

TEST_F(VerilogRoundTripTest, RejectsPinConnectedTwice) {
  const VerilogParseError e = rejection(
      "module x (a, b);\n  input a; input b;\n  wire y;\n"
      "  INV_X1 u0 (.A(a), .A(b), .Y(y));\nendmodule\n");
  EXPECT_EQ(e.line(), 4);
  EXPECT_NE(std::string(e.what()).find("pin A connected twice"), std::string::npos)
      << e.what();
}

// Tokens without text are named, not printed as ''.
TEST_F(VerilogRoundTripTest, ErrorsNameTokensWithoutText) {
  const VerilogParseError close = rejection("module x ();\n  *)\nendmodule\n");
  EXPECT_EQ(close.line(), 2);
  EXPECT_NE(std::string(close.what()).find("unexpected token '*)'"), std::string::npos)
      << close.what();

  const VerilogParseError end = rejection("module x (a)\n");
  EXPECT_EQ(end.line(), 2);
  EXPECT_NE(std::string(end.what()).find("expected ';', got end of input"),
            std::string::npos)
      << end.what();

  // A NUL byte is not a token, wherever it sits.
  using namespace std::string_view_literals;
  const VerilogParseError nul = rejection("module x (a\0b);\nendmodule\n"sv);
  EXPECT_EQ(nul.line(), 1);
  EXPECT_NE(std::string(nul.what()).find("unexpected character"), std::string::npos)
      << nul.what();
}

TEST_F(VerilogRoundTripTest, ParsesCommentsAndAttributes) {
  const char* text = R"(
    // header comment
    (* clock_net = "ck" *)
    module m (ck, a, y);
      input ck; input a; output y;
      /* a block comment */
      (* submodule = "s0", role = "misc", component = "c0" *)
      DFF_X1 r0 (.D(a), .CK(ck), .Q(y));
    endmodule
  )";
  const Netlist back = parse_verilog(text, lib_);
  EXPECT_EQ(back.num_cells(), 1u);
  EXPECT_NE(back.clock_net(), kNoNet);
  EXPECT_EQ(back.submodules().size(), 1u);
  EXPECT_NO_THROW(back.check());
}

}  // namespace
}  // namespace atlas::netlist
