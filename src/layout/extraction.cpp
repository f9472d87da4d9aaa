#include "layout/extraction.h"

namespace atlas::layout {

Parasitics extract(const netlist::Netlist& nl, const Placement& pl,
                   const ExtractConfig& config) {
  Parasitics out;
  out.wire_cap_ff.resize(nl.num_nets(), 0.0);
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    const double hpwl = pl.net_hpwl(nl, net);
    const double length = hpwl * config.route_factor;
    out.wire_cap_ff[net] = length * config.cap_per_um_ff +
                           config.via_cap_ff *
                               static_cast<double>(nl.net(net).sinks.size());
  }
  return out;
}

void annotate(netlist::Netlist& nl, const Parasitics& parasitics) {
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    nl.mutable_net(net).wire_cap_ff = parasitics.wire_cap_ff.at(net);
  }
}

double net_load_ff(const netlist::Netlist& nl, netlist::NetId net) {
  const netlist::Net& n = nl.net(net);
  double load = n.wire_cap_ff;
  for (const netlist::PinRef& s : n.sinks) {
    load += nl.lib_cell(s.cell).pins[static_cast<std::size_t>(s.pin)].cap_ff;
  }
  return load;
}

}  // namespace atlas::layout
