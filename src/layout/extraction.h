// Parasitic extraction.
//
// Substitutes for Innovus detailed-route RC extraction. Wire capacitance per
// net is modeled as HPWL x unit capacitance (plus a per-sink via/branch
// overhead) — the standard Steiner-free estimate. The result can be
// annotated onto the netlist (Net::wire_cap_ff) and round-tripped through
// the SPEF-subset writer/parser (spef.h), which is what PTPX consumes in the
// paper's golden flow.
#pragma once

#include <vector>

#include "layout/placer.h"
#include "netlist/netlist.h"

namespace atlas::layout {

struct ExtractConfig {
  double cap_per_um_ff = 0.22;   // 40nm-class routed wire capacitance
  double via_cap_ff = 0.08;      // per-sink branch/via overhead
  /// Routing detour factor over HPWL.
  double route_factor = 1.15;
};

struct Parasitics {
  /// Wire capacitance in fF, indexed by NetId.
  std::vector<double> wire_cap_ff;
};

/// Extract wire caps for every net under the given placement.
Parasitics extract(const netlist::Netlist& nl, const Placement& pl,
                   const ExtractConfig& config = {});

/// Copy extracted caps onto the netlist's Net::wire_cap_ff fields.
void annotate(netlist::Netlist& nl, const Parasitics& parasitics);

/// Total capacitive load seen by a net's driver: wire cap (from the netlist
/// annotation) plus all sink input-pin caps. Used by timing optimization and
/// the power analyzer.
double net_load_ff(const netlist::Netlist& nl, netlist::NetId net);

}  // namespace atlas::layout
