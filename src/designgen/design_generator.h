// Whole-design composer.
//
// Substitutes for the paper's six proprietary realistic designs (C1..C6,
// 289k-598k cells). A design is a set of named components (frontend, lsu,
// dcache, ...), each holding many functional sub-modules generated by the
// block builders; blocks exchange data only through registered outputs, so
// the composed design is combinationally acyclic and fully synchronous on a
// single clock with an active-low reset.
//
// Default experiment scale is 1:100 of the paper (see DESIGN.md): the flow
// preserves the paper's relative design sizes C1 < C2 < ... < C6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace atlas::designgen {

struct DesignSpec {
  std::string name = "C1";
  std::uint64_t seed = 1;
  std::size_t target_cells = 3000;
  int num_primary_inputs = 96;   // data PIs, excluding clk / rstn
  int num_primary_outputs = 32;
  /// Component names; sub-modules are distributed round-robin across them.
  std::vector<std::string> components;
  /// SRAM-macro sub-modules to place into cache-like components.
  int num_memories = 2;
};

/// Paper Table II gate-level cell counts for C1..C6.
inline constexpr std::size_t kPaperGateCells[6] = {289384, 322664, 389120,
                                                   399486, 465129, 597877};

/// Spec for paper design Ci (index 1..6) at the given scale factor.
/// Components and seeds differ per design so train/test designs are truly
/// distinct (C2 mimics the paper's out-of-order CPU component mix).
DesignSpec paper_design_spec(int index, double scale = 0.01);

/// Generate a design; the result passes Netlist::check().
netlist::Netlist generate_design(const DesignSpec& spec,
                                 const liberty::Library& lib);

}  // namespace atlas::designgen
