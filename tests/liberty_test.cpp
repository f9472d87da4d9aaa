#include <gtest/gtest.h>

#include "liberty/liberty_io.h"
#include "liberty/library.h"
#include "liberty/types.h"

namespace atlas::liberty {
namespace {

TEST(Types, EighteenNodeTypes) {
  EXPECT_EQ(kNumNodeTypes, 18);
  // Names are unique and round-trip.
  for (int i = 0; i < kNumNodeTypes; ++i) {
    const NodeType t = static_cast<NodeType>(i);
    EXPECT_EQ(node_type_from_name(node_type_name(t)), t);
  }
}

TEST(Types, NodeTypeOfCoversFamilies) {
  EXPECT_EQ(node_type_of(CellFunc::kNand3), NodeType::kNand);
  EXPECT_EQ(node_type_of(CellFunc::kFaSum), NodeType::kAdd);
  EXPECT_EQ(node_type_of(CellFunc::kMaj3), NodeType::kAdd);
  EXPECT_EQ(node_type_of(CellFunc::kCkGate), NodeType::kCk);
  EXPECT_EQ(node_type_of(CellFunc::kDffR), NodeType::kRegR);
  EXPECT_EQ(node_type_of(CellFunc::kSram), NodeType::kMacro);
}

TEST(Types, PowerGroups) {
  EXPECT_EQ(power_group_of(NodeType::kNand), PowerGroup::kComb);
  EXPECT_EQ(power_group_of(NodeType::kReg), PowerGroup::kRegister);
  EXPECT_EQ(power_group_of(NodeType::kRegR), PowerGroup::kRegister);
  EXPECT_EQ(power_group_of(NodeType::kLatch), PowerGroup::kRegister);
  EXPECT_EQ(power_group_of(NodeType::kCk), PowerGroup::kClockTree);
  EXPECT_EQ(power_group_of(NodeType::kMacro), PowerGroup::kMemory);
  EXPECT_EQ(power_group_of(NodeType::kTie), PowerGroup::kComb);
}

struct EvalCase {
  CellFunc func;
  std::vector<bool> inputs;
  bool expected;
};

class EvalCombTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalCombTest, TruthTable) {
  const EvalCase& c = GetParam();
  std::vector<bool> in = c.inputs;
  bool raw[3];
  for (std::size_t i = 0; i < in.size(); ++i) raw[i] = in[i];
  EXPECT_EQ(eval_comb(c.func, raw, static_cast<int>(in.size())), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    TruthTables, EvalCombTest,
    ::testing::Values(
        EvalCase{CellFunc::kInv, {false}, true},
        EvalCase{CellFunc::kInv, {true}, false},
        EvalCase{CellFunc::kBuf, {true}, true},
        EvalCase{CellFunc::kAnd2, {true, false}, false},
        EvalCase{CellFunc::kAnd2, {true, true}, true},
        EvalCase{CellFunc::kAnd3, {true, true, true}, true},
        EvalCase{CellFunc::kAnd3, {true, true, false}, false},
        EvalCase{CellFunc::kOr2, {false, false}, false},
        EvalCase{CellFunc::kOr3, {false, false, true}, true},
        EvalCase{CellFunc::kNand2, {true, true}, false},
        EvalCase{CellFunc::kNand3, {true, false, true}, true},
        EvalCase{CellFunc::kNor2, {false, false}, true},
        EvalCase{CellFunc::kNor3, {false, true, false}, false},
        EvalCase{CellFunc::kXor2, {true, false}, true},
        EvalCase{CellFunc::kXor2, {true, true}, false},
        EvalCase{CellFunc::kXnor2, {true, true}, true},
        EvalCase{CellFunc::kMux2, {true, false, false}, true},   // S=0 -> A
        EvalCase{CellFunc::kMux2, {true, false, true}, false},   // S=1 -> B
        EvalCase{CellFunc::kAoi21, {true, true, false}, false},
        EvalCase{CellFunc::kAoi21, {false, true, false}, true},
        EvalCase{CellFunc::kOai21, {false, false, true}, true},
        EvalCase{CellFunc::kOai21, {true, false, true}, false},
        EvalCase{CellFunc::kFaSum, {true, true, true}, true},
        EvalCase{CellFunc::kFaSum, {true, true, false}, false},
        EvalCase{CellFunc::kMaj3, {true, true, false}, true},
        EvalCase{CellFunc::kMaj3, {true, false, false}, false},
        EvalCase{CellFunc::kTieHi, {}, true},
        EvalCase{CellFunc::kTieLo, {}, false},
        EvalCase{CellFunc::kCkGate, {true, true}, true},
        EvalCase{CellFunc::kCkGate, {true, false}, false}));

TEST(Types, EvalCombWrongArityThrows) {
  bool in[3] = {true, true, true};
  EXPECT_THROW(eval_comb(CellFunc::kInv, in, 2), std::invalid_argument);
  EXPECT_THROW(eval_comb(CellFunc::kDff, in, 0), std::invalid_argument);
}

TEST(Types, Classification) {
  EXPECT_TRUE(is_sequential(CellFunc::kDff));
  EXPECT_TRUE(is_sequential(CellFunc::kLatch));
  EXPECT_FALSE(is_sequential(CellFunc::kCkGate));
  EXPECT_TRUE(is_clock_cell(CellFunc::kCkBuf));
  EXPECT_TRUE(is_clock_cell(CellFunc::kCkGate));
  EXPECT_FALSE(is_clock_cell(CellFunc::kBuf));
  EXPECT_TRUE(is_macro(CellFunc::kSram));
  EXPECT_TRUE(is_combinational(CellFunc::kNand2));
  EXPECT_TRUE(is_combinational(CellFunc::kTieHi));
  EXPECT_FALSE(is_combinational(CellFunc::kDff));
  EXPECT_FALSE(is_combinational(CellFunc::kSram));
}

class DefaultLibraryTest : public ::testing::Test {
 protected:
  Library lib_ = make_default_library();
};

TEST_F(DefaultLibraryTest, HasAllFunctions) {
  for (int f = 0; f <= static_cast<int>(CellFunc::kSram); ++f) {
    EXPECT_NO_THROW(lib_.cell_for(static_cast<CellFunc>(f)));
  }
}

TEST_F(DefaultLibraryTest, LookupByName) {
  const CellId id = lib_.must("NAND2_X1");
  EXPECT_EQ(lib_.cell(id).func, CellFunc::kNand2);
  EXPECT_EQ(lib_.cell(id).drive, 1);
  EXPECT_FALSE(lib_.find("NAND2_X99").has_value());
  EXPECT_THROW(lib_.must("NOPE"), std::out_of_range);
}

TEST_F(DefaultLibraryTest, DriveUpChain) {
  const CellId x1 = lib_.must("INV_X1");
  const auto x2 = lib_.next_drive_up(x1);
  ASSERT_TRUE(x2.has_value());
  EXPECT_EQ(lib_.cell(*x2).drive, 2);
  const auto x4 = lib_.next_drive_up(*x2);
  ASSERT_TRUE(x4.has_value());
  EXPECT_EQ(lib_.cell(*x4).drive, 4);
  EXPECT_FALSE(lib_.next_drive_up(*x4).has_value());
}

TEST_F(DefaultLibraryTest, EnergyInterpolationMonotone) {
  const CellId id = lib_.must("NAND2_X1");
  double prev = -1.0;
  for (double load = 0.0; load <= 80.0; load += 4.0) {
    const double e = lib_.internal_energy_fj(id, load);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST_F(DefaultLibraryTest, EnergyClampedOutsideLut) {
  const CellId id = lib_.must("NAND2_X1");
  EXPECT_DOUBLE_EQ(lib_.internal_energy_fj(id, -5.0),
                   lib_.internal_energy_fj(id, 0.0));
  EXPECT_DOUBLE_EQ(lib_.internal_energy_fj(id, 1000.0),
                   lib_.internal_energy_fj(id, 64.0));
}

TEST_F(DefaultLibraryTest, InterpolationBetweenPoints) {
  const CellId id = lib_.must("INV_X1");
  const double e4 = lib_.internal_energy_fj(id, 4.0);
  const double e8 = lib_.internal_energy_fj(id, 8.0);
  EXPECT_NEAR(lib_.internal_energy_fj(id, 6.0), 0.5 * (e4 + e8), 1e-12);
}

TEST_F(DefaultLibraryTest, SwitchingEnergyFormula) {
  // 0.5 * C * V^2: 10 fF at 0.9 V -> 4.05 fJ.
  EXPECT_NEAR(lib_.switching_energy_fj(10.0), 4.05, 1e-9);
}

TEST_F(DefaultLibraryTest, RegistersDominatedByClockPinEnergy) {
  const Cell& dff = lib_.cell(lib_.must("DFF_X1"));
  EXPECT_GT(dff.clock_pin_energy_fj, 0.0);
  // Clock pin flagged.
  const auto ck = dff.pin_index("CK");
  ASSERT_TRUE(ck.has_value());
  EXPECT_TRUE(dff.pins[static_cast<std::size_t>(*ck)].is_clock);
}

TEST_F(DefaultLibraryTest, SramMacroShape) {
  const Cell& sram = lib_.cell(lib_.cell_for(CellFunc::kSram));
  EXPECT_GT(sram.read_energy_fj, 1000.0);
  EXPECT_GT(sram.write_energy_fj, sram.read_energy_fj);
  int outs = 0;
  for (const Pin& p : sram.pins) outs += p.dir == PinDir::kOutput;
  EXPECT_EQ(outs, 16);
  EXPECT_EQ(sram.pins.size(), 3u + 8u + 16u + 16u);
  EXPECT_GT(sram.leakage_uw, 1.0);  // macro leakage dwarfs cell leakage
}

TEST_F(DefaultLibraryTest, DuplicateCellNameRejected) {
  Library lib("t", 0.9, 1.0);
  Cell c;
  c.name = "X";
  lib.add_cell(c);
  EXPECT_THROW(lib.add_cell(c), std::invalid_argument);
}

TEST_F(DefaultLibraryTest, PinOrderConventions) {
  const Cell& dffr = lib_.cell(lib_.must("DFFR_X1"));
  ASSERT_EQ(dffr.pins.size(), 4u);
  EXPECT_EQ(dffr.pins[0].name, "D");
  EXPECT_EQ(dffr.pins[1].name, "CK");
  EXPECT_EQ(dffr.pins[2].name, "RN");
  EXPECT_EQ(dffr.pins[3].name, "Q");
  const Cell& mux = lib_.cell(lib_.must("MUX2_X1"));
  EXPECT_EQ(mux.pins[2].name, "S");
}

TEST(LibertyIo, WriterParserRoundTrip) {
  const Library lib = make_default_library();
  const std::string text = write_liberty(lib);
  const Library back = parse_library(text);
  ASSERT_EQ(back.size(), lib.size());
  EXPECT_DOUBLE_EQ(back.voltage(), lib.voltage());
  EXPECT_EQ(back.name(), lib.name());
  for (CellId id = 0; id < lib.size(); ++id) {
    const Cell& a = lib.cell(id);
    const auto bid = back.find(a.name);
    ASSERT_TRUE(bid.has_value()) << a.name;
    const Cell& b = back.cell(*bid);
    EXPECT_EQ(b.func, a.func);
    EXPECT_EQ(b.type, a.type);
    EXPECT_EQ(b.drive, a.drive);
    EXPECT_NEAR(b.leakage_uw, a.leakage_uw, 1e-9);
    EXPECT_NEAR(b.clock_pin_energy_fj, a.clock_pin_energy_fj, 1e-9);
    ASSERT_EQ(b.pins.size(), a.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_EQ(b.pins[p].name, a.pins[p].name);
      EXPECT_EQ(b.pins[p].dir, a.pins[p].dir);
      EXPECT_NEAR(b.pins[p].cap_ff, a.pins[p].cap_ff, 1e-9);
      EXPECT_EQ(b.pins[p].is_clock, a.pins[p].is_clock);
    }
    ASSERT_EQ(b.energy_fj.size(), a.energy_fj.size());
    for (std::size_t i = 0; i < a.energy_fj.size(); ++i) {
      EXPECT_NEAR(b.energy_fj[i], a.energy_fj[i], 1e-6);
    }
  }
}

TEST(LibertyIo, ParsesCommentsAndWhitespace) {
  const char* text = R"(
    /* block comment */
    library(mini) { // line comment
      nom_voltage : 1.1;
      cell(INV_T) {
        cell_function : "INV";
        area : 1.0;
        pin(A) { direction : input; capacitance : 0.5; }
        pin(Y) { direction : output; max_capacitance : 10; }
        internal_power() { index_1("0, 10"); values("0.2, 0.4"); }
      }
    }
  )";
  const Library lib = parse_library(text);
  EXPECT_DOUBLE_EQ(lib.voltage(), 1.1);
  const Cell& c = lib.cell(lib.must("INV_T"));
  EXPECT_EQ(c.func, CellFunc::kInv);
  EXPECT_NEAR(lib.internal_energy_fj(lib.must("INV_T"), 5.0), 0.3, 1e-12);
}

TEST(LibertyIo, MalformedInputThrows) {
  EXPECT_THROW(parse_liberty_text("library(x) {"), LibertyParseError);
  EXPECT_THROW(parse_liberty_text("library(x) } "), LibertyParseError);
  EXPECT_THROW(parse_liberty_text("library(x) { foo }"), LibertyParseError);
  EXPECT_THROW(parse_liberty_text("library(x) { a : ; }"), LibertyParseError);
  EXPECT_THROW(parse_library("cell(x) { }"), LibertyParseError);
  // A numeric field must be one whole finite number.
  for (const char* v : {"0.9abc", "nan", "x", "1e999"}) {
    EXPECT_THROW(parse_library(std::string("library(x) { nom_voltage : \"") +
                               v + "\"; }"),
                 LibertyParseError)
        << v;
  }
}

TEST(LibertyIo, UnknownCellFunctionThrows) {
  const char* text = R"(library(m) { cell(Z) { cell_function : "WAT"; } })";
  EXPECT_THROW(parse_library(text), std::invalid_argument);
}

TEST(LibertyIo, GenericAstExposesStructure) {
  const LibertyGroup g = parse_liberty_text(
      "library(n) { k : v; sub(a, b) { x : 1; } }");
  EXPECT_EQ(g.kind, "library");
  ASSERT_EQ(g.args.size(), 1u);
  EXPECT_EQ(g.attr("k"), "v");
  EXPECT_TRUE(g.has_attr("k"));
  EXPECT_FALSE(g.has_attr("nope"));
  EXPECT_EQ(g.attr("nope", "dflt"), "dflt");
  ASSERT_EQ(g.children.size(), 1u);
  EXPECT_EQ(g.children[0].kind, "sub");
  ASSERT_EQ(g.children[0].args.size(), 2u);
}

TEST(LibertyIo, FileRoundTrip) {
  const Library lib = make_default_library();
  const std::string path = ::testing::TempDir() + "/atlas_lib_test.lib";
  save_liberty_file(lib, path);
  const Library back = load_liberty_file(path);
  EXPECT_EQ(back.size(), lib.size());
}

TEST(LibertyIo, ContentHashIsDeterministicAndRoundTripStable) {
  // Two independently built copies hash equal; and because the hash is
  // defined over the canonical serialization, a write/parse round trip
  // (which quantizes values through %.9g) keeps the hash stable — so a
  // library loaded from disk keys the same cache entries as its source.
  const Library a = make_default_library();
  const Library b = make_default_library();
  EXPECT_NE(content_hash(a), 0u);
  EXPECT_EQ(content_hash(a), content_hash(b));
  EXPECT_EQ(content_hash(parse_library(write_liberty(a))), content_hash(a));
}

TEST(LibertyIo, ContentHashSeparatesDifferentLibraries) {
  const Library base = make_default_library();
  Library scaled("scaled", base.voltage(), base.clock_period_ns());
  for (Cell c : base.cells()) {
    for (double& e : c.energy_fj) e *= 2.0;
    c.leakage_uw *= 2.0;
    scaled.add_cell(std::move(c));
  }
  EXPECT_NE(content_hash(base), content_hash(scaled));

  // The name alone also separates: same cells, different header.
  Library renamed("renamed", base.voltage(), base.clock_period_ns());
  for (Cell c : base.cells()) renamed.add_cell(std::move(c));
  EXPECT_NE(content_hash(base), content_hash(renamed));
}

}  // namespace
}  // namespace atlas::liberty
