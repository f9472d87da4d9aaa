// ATLAS netlist preprocessing (paper Sec. III).
//
// For each design this produces the aligned netlist triple the pre-training
// stage consumes — N_g (gate level), N_g+ (logic-invariant rewrite), N_p
// (post-layout) — plus, per workload, toggle traces for all three and the
// golden / gate-level-baseline power analyses. Sub-module ids are preserved
// across all three netlists, so graphs align positionally (g_i, g_i+, p_i).
#pragma once

#include <string>
#include <vector>

#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "layout/layout_flow.h"
#include "netlist/netlist.h"
#include "power/power_analyzer.h"
#include "sim/simulator.h"
#include "transform/rewrite.h"
#include "util/timer.h"

namespace atlas::core {

struct PreprocessConfig {
  int cycles = 300;
  std::vector<sim::WorkloadSpec> workloads;  // defaults to {W1, W2}
  transform::RewriteConfig rewrite;
  layout::LayoutConfig layout;
};

/// Everything ATLAS training/evaluation needs about one design.
struct DesignData {
  designgen::DesignSpec spec;
  netlist::Netlist gate;             // N_g
  netlist::Netlist plus;             // N_g+
  layout::LayoutResult layout;       // N_p (+ placement, parasitics)

  struct WorkloadData {
    std::string name;
    sim::ToggleTrace gate_trace;     // N_g toggles (ATLAS input features)
    sim::ToggleTrace plus_trace;     // N_g+ toggles (pre-training task #4)
    sim::ToggleTrace post_trace;     // N_p toggles (golden + task #5)
    power::PowerResult golden;       // PTPX substitute on N_p + SPEF caps
    power::PowerResult gate_level;   // "Gate-Level PTPX" baseline on N_g
  };
  std::vector<WorkloadData> workloads;

  // Sub-module DGs, indexed by SubmoduleId, aligned across stages.
  std::vector<graph::SubmoduleGraph> gate_graphs;
  std::vector<graph::SubmoduleGraph> plus_graphs;
  std::vector<graph::SubmoduleGraph> post_graphs;

  /// Wall-clock attribution for the Table IV runtime experiment; phases:
  /// "generate", "rewrite", "pnr", "golden_sim", "atlas_pre".
  util::PhaseTimers timers;
};

/// Run the full preprocessing pipeline for one design spec.
DesignData prepare_design(const designgen::DesignSpec& spec,
                          const liberty::Library& lib,
                          const PreprocessConfig& config = {});

/// Structural fallback sub-module splitter for netlists parsed from Verilog
/// without sub-module attributes (paper's splitter works from functional
/// roles; this clusters cells around register groups via BFS). Tags every
/// untagged cell; resulting sub-modules have roughly `target_cells` cells.
/// Returns the number of sub-modules created: 0 when every cell is already
/// tagged, in which case the netlist is left unchanged.
int assign_submodules_by_structure(netlist::Netlist& nl, int target_cells = 150);

}  // namespace atlas::core
