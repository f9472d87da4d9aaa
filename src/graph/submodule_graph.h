// Sub-module directed graphs with ATLAS node features (paper Sec. III-C).
//
// Each sub-module becomes one DG: nodes are cell instances, directed edges
// follow driver -> sink wires inside the sub-module. Node features:
//
//   [0..17]  one-hot node type (18 categories)
//   [18]     per-cycle toggle (transitions / 2, so clock nets read 1.0)
//   [19]     [MASK_TOGGLE] flag   (set by pre-training masking)
//   [20]     [MASK_NODE_TYPE] flag
//   [21]     cell internal energy at its actual load (scaled)
//   [22]     cell leakage (log-scaled; SRAM leakage is orders larger)
//   [23]     output load capacitance (scaled)
//
// The type one-hot, powers and caps are static per netlist; the toggle
// channel is filled per cycle from a ToggleTrace. Masking flags are zero
// here and driven by the pre-training tasks.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/matrix.h"
#include "netlist/netlist.h"
#include "sim/simulator.h"

namespace atlas::graph {

inline constexpr int kTypeOffset = 0;
inline constexpr int kToggleOffset = 18;
inline constexpr int kMaskToggleFlag = 19;
inline constexpr int kMaskTypeFlag = 20;
inline constexpr int kInternalOffset = 21;
inline constexpr int kLeakageOffset = 22;
inline constexpr int kCapOffset = 23;
inline constexpr int kFeatureDim = 24;

// Feature scaling constants (documented normalizers, not learned).
inline constexpr float kInternalScale = 1.0f / 3.0f;   // fJ -> O(1)
inline constexpr float kCapScale = 1.0f / 30.0f;       // fF -> O(1)

struct SubmoduleGraph {
  netlist::SubmoduleId submodule = netlist::kNoSubmodule;
  std::vector<netlist::CellInstId> cells;            // node index -> cell
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // driver->sink
  std::vector<netlist::NetId> out_net;               // node -> output net
  std::vector<int> node_type;                        // node -> NodeType index
  ml::Matrix static_features;                        // N x kFeatureDim

  std::size_t num_nodes() const { return cells.size(); }
};

/// Build the DG of one sub-module. Throws if the sub-module is empty.
SubmoduleGraph build_submodule_graph(const netlist::Netlist& nl,
                                     netlist::SubmoduleId submodule);

/// Build DGs for all sub-modules of a design (skipping empty ones).
std::vector<SubmoduleGraph> build_submodule_graphs(const netlist::Netlist& nl);

/// Copy static features and fill the per-cycle toggle channel from a trace
/// into a row-major buffer of num_nodes x kFeatureDim floats.
void fill_cycle_features(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                         int cycle, float* out);

/// Same, into `out` resized to num_nodes x kFeatureDim (its storage reused).
void fill_cycle_features(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                         int cycle, ml::Matrix& out);

/// The toggle channel is the only feature fill_cycle_features varies by
/// cycle, so two cycles of `g` with equal channels get identical feature
/// rows (and identical encoder outputs). FNV-1a over the channel's
/// per-node transition counts; equal channels hash equal.
std::uint64_t toggle_channel_hash(const SubmoduleGraph& g,
                                  const sim::ToggleTrace& trace, int cycle);

/// Exact channel equality of two cycles of `g` (confirms a hash match).
bool same_toggle_channel(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                         int cycle_a, int cycle_b);

}  // namespace atlas::graph
