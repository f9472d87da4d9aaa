// Cell taxonomy shared by the whole stack.
//
// The paper (Sec. III-C) categorizes all standard cells into 18 functional
// node types; the one-hot node type is both an encoder input feature and the
// target of the masked-node-type pre-training task (#2). Power grouping
// (combinational / register / clock tree / memory) is derived from the type.
#pragma once

#include <cstdint>
#include <string_view>

namespace atlas::liberty {

/// The 18 functional node-type categories (paper Sec. III-C.1).
enum class NodeType : std::uint8_t {
  kInv = 0,
  kBuf,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
  kMux,
  kAoi,
  kOai,
  kAdd,    // adder cells (full-adder sum, majority/carry)
  kTie,    // constant generators
  kReg,    // plain D flip-flop
  kRegR,   // resettable D flip-flop
  kLatch,
  kCk,     // all clock cells: clock buffer / inverter / gate (paper: "CK")
  kMacro,  // SRAM macro
};

inline constexpr int kNumNodeTypes = 18;

/// Concrete cell logic functions (what the simulator evaluates).
enum class CellFunc : std::uint8_t {
  kInv = 0,
  kBuf,
  kAnd2,
  kAnd3,
  kOr2,
  kOr3,
  kNand2,
  kNand3,
  kNor2,
  kNor3,
  kXor2,
  kXnor2,
  kMux2,   // inputs A, B, S; Y = S ? B : A
  kAoi21,  // Y = !((A & B) | C)
  kOai21,  // Y = !((A | B) & C)
  kFaSum,  // Y = A ^ B ^ C
  kMaj3,   // Y = majority(A, B, C) — full-adder carry
  kTieHi,
  kTieLo,
  kDff,    // D, CK -> Q
  kDffR,   // D, CK, RN -> Q (synchronous active-low reset)
  kLatch,  // D, EN -> Q (transparent high)
  kCkBuf,
  kCkInv,
  kCkGate, // CK, EN -> GCK (integrated clock gate; modeled as AND)
  kSram,   // 1RW SRAM macro
};

std::string_view node_type_name(NodeType t);
std::string_view cell_func_name(CellFunc f);

/// Parse a node-type name as written by the Liberty writer. Throws on unknown.
NodeType node_type_from_name(std::string_view name);
CellFunc cell_func_from_name(std::string_view name);

/// Node type implied by a cell function.
NodeType node_type_of(CellFunc f);

/// Number of data inputs of a combinational function (0 for sequential/macro;
/// kCkGate reports 2: CK and EN).
int comb_input_count(CellFunc f);

bool is_sequential(CellFunc f);  // DFF / DFFR / LATCH
bool is_clock_cell(CellFunc f);  // CKBUF / CKINV / CKGATE
bool is_macro(CellFunc f);
bool is_combinational(CellFunc f);  // everything else incl. TIE

/// Evaluate a combinational cell function. `inputs` must hold
/// comb_input_count(f) values. kCkGate evaluates as CK & EN.
bool eval_comb(CellFunc f, const bool* inputs, int n);

/// Power groups used for labels and reporting (paper Sec. V / footnote 3:
/// the register group owns each register's clock-pin power; the clock-tree
/// group owns everything else on the clock network).
enum class PowerGroup : std::uint8_t { kComb = 0, kRegister, kClockTree, kMemory };

inline constexpr int kNumPowerGroups = 4;

/// Group a node type maps to. Clock-gating cells and clock buffers are
/// kClockTree; REG/REGR/LATCH are kRegister; MACRO is kMemory.
PowerGroup power_group_of(NodeType t);

}  // namespace atlas::liberty
