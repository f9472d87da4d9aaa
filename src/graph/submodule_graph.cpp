#include "graph/submodule_graph.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "layout/extraction.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace atlas::graph {

using netlist::CellInstId;
using netlist::kNoNet;
using netlist::NetId;

SubmoduleGraph build_submodule_graph(const netlist::Netlist& nl,
                                     netlist::SubmoduleId submodule) {
  SubmoduleGraph g;
  g.submodule = submodule;
  g.cells = nl.cells_in_submodule(submodule);
  if (g.cells.empty()) {
    throw std::invalid_argument("build_submodule_graph: empty sub-module");
  }
  std::unordered_map<CellInstId, std::uint32_t> node_of;
  node_of.reserve(g.cells.size());
  for (std::uint32_t i = 0; i < g.cells.size(); ++i) node_of.emplace(g.cells[i], i);

  const liberty::Library& lib = nl.library();
  g.out_net.resize(g.cells.size(), kNoNet);
  g.node_type.resize(g.cells.size(), 0);
  g.static_features = ml::Matrix(g.cells.size(), kFeatureDim);

  for (std::uint32_t i = 0; i < g.cells.size(); ++i) {
    const CellInstId cid = g.cells[i];
    const liberty::Cell& lc = nl.lib_cell(cid);
    g.node_type[i] = static_cast<int>(lc.type);
    g.out_net[i] = nl.output_net(cid);

    float* f = g.static_features.row(i);
    f[kTypeOffset + g.node_type[i]] = 1.0f;
    double load_ff = 0.0;
    if (g.out_net[i] != kNoNet) {
      load_ff = layout::net_load_ff(nl, g.out_net[i]);
      // Intra-sub-module edges: driver -> each sink in the same sub-module.
      for (const netlist::PinRef& s : nl.net(g.out_net[i]).sinks) {
        const auto it = node_of.find(s.cell);
        if (it != node_of.end()) g.edges.emplace_back(i, it->second);
      }
    }
    const double internal =
        lib.internal_energy_fj(nl.cell(cid).lib_cell, load_ff) +
        lc.clock_pin_energy_fj;
    f[kInternalOffset] = static_cast<float>(internal) * kInternalScale;
    f[kLeakageOffset] =
        static_cast<float>(std::log1p(lc.leakage_uw * 1000.0) * 0.1);
    f[kCapOffset] = static_cast<float>(load_ff) * kCapScale;
  }
  return g;
}

std::vector<SubmoduleGraph> build_submodule_graphs(const netlist::Netlist& nl) {
  // Sub-modules build independently: collect the non-empty ids first (the
  // output keeps ascending SubmoduleId order), then extract each graph's
  // per-node features in parallel.
  std::vector<netlist::SubmoduleId> live;
  live.reserve(nl.submodules().size());
  for (netlist::SubmoduleId sm = 0;
       sm < static_cast<netlist::SubmoduleId>(nl.submodules().size()); ++sm) {
    if (!nl.cells_in_submodule(sm).empty()) live.push_back(sm);
  }
  std::vector<SubmoduleGraph> graphs(live.size());
  util::parallel_for(live.size(), std::size_t{1}, [&](std::size_t i) {
    graphs[i] = build_submodule_graph(nl, live[i]);
  });
  return graphs;
}

void fill_cycle_features(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                         int cycle, float* out) {
  const float* src = g.static_features.data();
  std::copy(src, src + g.num_nodes() * kFeatureDim, out);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const NetId net = g.out_net[i];
    if (net == kNoNet) continue;
    out[i * kFeatureDim + kToggleOffset] =
        static_cast<float>(trace.transitions(cycle, net)) * 0.5f;
  }
}

void fill_cycle_features(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                         int cycle, ml::Matrix& out) {
  out.resize(g.num_nodes(), kFeatureDim);
  fill_cycle_features(g, trace, cycle, out.data());
}

std::uint64_t toggle_channel_hash(const SubmoduleGraph& g,
                                  const sim::ToggleTrace& trace, int cycle) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const NetId net : g.out_net) {
    const int t = net == kNoNet ? 0 : trace.transitions(cycle, net);
    h = (h ^ static_cast<std::uint64_t>(t)) * util::kFnvPrime;
  }
  return h;
}

bool same_toggle_channel(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                         int cycle_a, int cycle_b) {
  for (const NetId net : g.out_net) {
    if (net != kNoNet &&
        trace.transitions(cycle_a, net) != trace.transitions(cycle_b, net)) {
      return false;
    }
  }
  return true;
}

}  // namespace atlas::graph
