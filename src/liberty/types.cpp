#include "liberty/types.h"

#include <array>
#include <stdexcept>
#include <string>

namespace atlas::liberty {
namespace {

constexpr std::array<std::string_view, kNumNodeTypes> kNodeTypeNames = {
    "INV",  "BUF",  "AND",  "OR",    "NAND", "NOR",
    "XOR",  "XNOR", "MUX",  "AOI",   "OAI",  "ADD",
    "TIE",  "REG",  "REGR", "LATCH", "CK",   "MACRO"};

constexpr std::array<std::string_view, 26> kCellFuncNames = {
    "INV",   "BUF",   "AND2",  "AND3",  "OR2",    "OR3",   "NAND2",
    "NAND3", "NOR2",  "NOR3",  "XOR2",  "XNOR2",  "MUX2",  "AOI21",
    "OAI21", "FASUM", "MAJ3",  "TIEHI", "TIELO",  "DFF",   "DFFR",
    "LATCH", "CKBUF", "CKINV", "CKGATE", "SRAM"};

}  // namespace

std::string_view node_type_name(NodeType t) {
  return kNodeTypeNames.at(static_cast<std::size_t>(t));
}

std::string_view cell_func_name(CellFunc f) {
  return kCellFuncNames.at(static_cast<std::size_t>(f));
}

NodeType node_type_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNodeTypeNames.size(); ++i) {
    if (kNodeTypeNames[i] == name) return static_cast<NodeType>(i);
  }
  throw std::invalid_argument("unknown node type: " + std::string(name));
}

CellFunc cell_func_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kCellFuncNames.size(); ++i) {
    if (kCellFuncNames[i] == name) return static_cast<CellFunc>(i);
  }
  throw std::invalid_argument("unknown cell function: " + std::string(name));
}

NodeType node_type_of(CellFunc f) {
  switch (f) {
    case CellFunc::kInv: return NodeType::kInv;
    case CellFunc::kBuf: return NodeType::kBuf;
    case CellFunc::kAnd2:
    case CellFunc::kAnd3: return NodeType::kAnd;
    case CellFunc::kOr2:
    case CellFunc::kOr3: return NodeType::kOr;
    case CellFunc::kNand2:
    case CellFunc::kNand3: return NodeType::kNand;
    case CellFunc::kNor2:
    case CellFunc::kNor3: return NodeType::kNor;
    case CellFunc::kXor2: return NodeType::kXor;
    case CellFunc::kXnor2: return NodeType::kXnor;
    case CellFunc::kMux2: return NodeType::kMux;
    case CellFunc::kAoi21: return NodeType::kAoi;
    case CellFunc::kOai21: return NodeType::kOai;
    case CellFunc::kFaSum:
    case CellFunc::kMaj3: return NodeType::kAdd;
    case CellFunc::kTieHi:
    case CellFunc::kTieLo: return NodeType::kTie;
    case CellFunc::kDff: return NodeType::kReg;
    case CellFunc::kDffR: return NodeType::kRegR;
    case CellFunc::kLatch: return NodeType::kLatch;
    case CellFunc::kCkBuf:
    case CellFunc::kCkInv:
    case CellFunc::kCkGate: return NodeType::kCk;
    case CellFunc::kSram: return NodeType::kMacro;
  }
  throw std::logic_error("node_type_of: unhandled cell function");
}

int comb_input_count(CellFunc f) {
  switch (f) {
    case CellFunc::kInv:
    case CellFunc::kBuf:
    case CellFunc::kCkBuf:
    case CellFunc::kCkInv: return 1;
    case CellFunc::kAnd2:
    case CellFunc::kOr2:
    case CellFunc::kNand2:
    case CellFunc::kNor2:
    case CellFunc::kXor2:
    case CellFunc::kXnor2:
    case CellFunc::kCkGate: return 2;
    case CellFunc::kAnd3:
    case CellFunc::kOr3:
    case CellFunc::kNand3:
    case CellFunc::kNor3:
    case CellFunc::kMux2:
    case CellFunc::kAoi21:
    case CellFunc::kOai21:
    case CellFunc::kFaSum:
    case CellFunc::kMaj3: return 3;
    case CellFunc::kTieHi:
    case CellFunc::kTieLo: return 0;
    case CellFunc::kDff:
    case CellFunc::kDffR:
    case CellFunc::kLatch:
    case CellFunc::kSram: return 0;
  }
  throw std::logic_error("comb_input_count: unhandled cell function");
}

bool is_sequential(CellFunc f) {
  return f == CellFunc::kDff || f == CellFunc::kDffR || f == CellFunc::kLatch;
}

bool is_clock_cell(CellFunc f) {
  return f == CellFunc::kCkBuf || f == CellFunc::kCkInv ||
         f == CellFunc::kCkGate;
}

bool is_macro(CellFunc f) { return f == CellFunc::kSram; }

bool is_combinational(CellFunc f) {
  return !is_sequential(f) && !is_macro(f);
}

bool eval_comb(CellFunc f, const bool* in, int n) {
  const auto need = comb_input_count(f);
  if (n != need) throw std::invalid_argument("eval_comb: wrong input count");
  switch (f) {
    case CellFunc::kInv: return !in[0];
    case CellFunc::kBuf: return in[0];
    case CellFunc::kAnd2: return in[0] && in[1];
    case CellFunc::kAnd3: return in[0] && in[1] && in[2];
    case CellFunc::kOr2: return in[0] || in[1];
    case CellFunc::kOr3: return in[0] || in[1] || in[2];
    case CellFunc::kNand2: return !(in[0] && in[1]);
    case CellFunc::kNand3: return !(in[0] && in[1] && in[2]);
    case CellFunc::kNor2: return !(in[0] || in[1]);
    case CellFunc::kNor3: return !(in[0] || in[1] || in[2]);
    case CellFunc::kXor2: return in[0] != in[1];
    case CellFunc::kXnor2: return in[0] == in[1];
    case CellFunc::kMux2: return in[2] ? in[1] : in[0];
    case CellFunc::kAoi21: return !((in[0] && in[1]) || in[2]);
    case CellFunc::kOai21: return !((in[0] || in[1]) && in[2]);
    case CellFunc::kFaSum: return (in[0] != in[1]) != in[2];
    case CellFunc::kMaj3:
      return (in[0] && in[1]) || (in[0] && in[2]) || (in[1] && in[2]);
    case CellFunc::kTieHi: return true;
    case CellFunc::kTieLo: return false;
    case CellFunc::kCkBuf: return in[0];
    case CellFunc::kCkInv: return !in[0];
    case CellFunc::kCkGate: return in[0] && in[1];
    default:
      throw std::invalid_argument("eval_comb: not a combinational function");
  }
}

PowerGroup power_group_of(NodeType t) {
  switch (t) {
    case NodeType::kReg:
    case NodeType::kRegR:
    case NodeType::kLatch: return PowerGroup::kRegister;
    case NodeType::kCk: return PowerGroup::kClockTree;
    case NodeType::kMacro: return PowerGroup::kMemory;
    default: return PowerGroup::kComb;
  }
}

}  // namespace atlas::liberty
