#include "layout/spef.h"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/serialize.h"
#include "util/strings.h"

namespace atlas::layout {

std::string write_spef(const netlist::Netlist& nl, const Parasitics& parasitics) {
  std::ostringstream os;
  os << "*SPEF \"IEEE 1481-1998\"\n";
  os << "*DESIGN \"" << nl.name() << "\"\n";
  os << "*PROGRAM \"atlas layout flow\"\n";
  os << "*T_UNIT 1 NS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 HENRY\n";
  os << "*NAME_MAP\n";
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    os << "*" << net + 1 << " " << nl.net(net).name << "\n";
  }
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    os << "*D_NET *" << net + 1 << " "
       << util::format("%.6f", parasitics.wire_cap_ff.at(net)) << "\n*END\n";
  }
  return os.str();
}

Parasitics parse_spef(std::string_view text, const netlist::Netlist& nl) {
  std::unordered_map<std::string, netlist::NetId> by_name;
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    by_name.emplace(nl.net(net).name, net);
  }
  std::unordered_map<std::string, netlist::NetId> name_map;  // "*k" -> net
  Parasitics out;
  out.wire_cap_ff.assign(nl.num_nets(), 0.0);

  std::string_view line;
  bool in_name_map = false;
  std::size_t dnets = 0;
  while (util::next_line(text, line)) {
    const auto t = util::trim(line);
    if (t.empty()) continue;
    if (util::starts_with(t, "*NAME_MAP")) {
      in_name_map = true;
      continue;
    }
    if (util::starts_with(t, "*D_NET")) {
      in_name_map = false;
      const auto parts = util::split_ws(t);
      if (parts.size() < 3) throw std::runtime_error("spef: malformed *D_NET");
      const auto it = name_map.find(parts[1]);
      if (it == name_map.end()) {
        throw std::runtime_error("spef: *D_NET references unmapped name " + parts[1]);
      }
      const auto cap = util::parse_number<double>(parts[2]);
      if (!cap) {
        throw std::runtime_error("spef: *D_NET capacitance '" +
                                 util::excerpt(parts[2]) +
                                 "' is not a finite number");
      }
      out.wire_cap_ff[it->second] = *cap;
      ++dnets;
      continue;
    }
    if (in_name_map && util::starts_with(t, "*")) {
      const auto parts = util::split_ws(t);
      if (parts.size() != 2) throw std::runtime_error("spef: malformed name map entry");
      const auto net_it = by_name.find(parts[1]);
      if (net_it == by_name.end()) {
        throw std::runtime_error("spef: unknown net " + parts[1]);
      }
      name_map.emplace(parts[0], net_it->second);
      continue;
    }
    // Header lines and *END markers are skipped.
  }
  if (dnets == 0) throw std::runtime_error("spef: no *D_NET sections found");
  return out;
}

void save_spef_file(const netlist::Netlist& nl, const Parasitics& parasitics,
                    const std::string& path) {
  util::write_file(path, write_spef(nl, parasitics));
}

Parasitics load_spef_file(const std::string& path, const netlist::Netlist& nl) {
  return parse_spef(util::read_file(path), nl);
}

}  // namespace atlas::layout
