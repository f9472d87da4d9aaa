#include "sim/vcd.h"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/serialize.h"
#include "util/strings.h"

namespace atlas::sim {
namespace {

/// VCD short identifiers: printable ASCII 33..126, little-endian base-94.
std::string vcd_id(std::size_t index) {
  std::string id;
  do {
    id.push_back(static_cast<char>(33 + index % 94));
    index /= 94;
  } while (index > 0);
  return id;
}

}  // namespace

std::string write_vcd(const netlist::Netlist& nl, const ToggleTrace& trace,
                      const std::vector<bool>& clock_net_mask) {
  std::ostringstream os;
  os << "$date atlas $end\n";
  os << "$version atlas vcd writer $end\n";
  os << "$timescale 1ns $end\n";
  os << "$scope module " << nl.name() << " $end\n";
  std::vector<netlist::NetId> dumped;
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    if (id < clock_net_mask.size() && clock_net_mask[id]) continue;
    os << "$var wire 1 " << vcd_id(dumped.size()) << " " << nl.net(id).name
       << " $end\n";
    dumped.push_back(id);
  }
  os << "$upscope $end\n$enddefinitions $end\n";
  std::vector<std::uint8_t> last(dumped.size(), 2);  // force initial dump
  for (int cycle = 0; cycle < trace.num_cycles(); ++cycle) {
    os << "#" << cycle << "\n";
    for (std::size_t i = 0; i < dumped.size(); ++i) {
      const std::uint8_t v = trace.value(cycle, dumped[i]) ? 1 : 0;
      if (v == last[i]) continue;
      os << (v ? '1' : '0') << vcd_id(i) << "\n";
      last[i] = v;
    }
  }
  os << "#" << trace.num_cycles() << "\n";
  return os.str();
}

VcdData parse_vcd(std::string_view text, const netlist::Netlist& nl,
                  int max_cycles) {
  std::unordered_map<std::string, netlist::NetId> net_by_name;
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    net_by_name.emplace(nl.net(id).name, id);
  }

  std::unordered_map<std::string, netlist::NetId> id_to_net;
  std::string_view line;
  bool in_defs = true;
  int last_stamp = -1;
  std::vector<std::uint8_t> current(nl.num_nets(), 0);
  std::vector<std::vector<std::uint8_t>> frames;

  auto flush_until = [&](int stamp) {
    // Fill cycles (last_stamp, stamp) with the running values.
    for (int c = static_cast<int>(frames.size()); c < stamp; ++c) {
      frames.push_back(current);
    }
  };

  while (util::next_line(text, line)) {
    const auto t = util::trim(line);
    if (t.empty()) continue;
    if (in_defs) {
      if (util::starts_with(t, "$var")) {
        const auto parts = util::split_ws(t);
        // $var wire 1 <id> <name> $end
        if (parts.size() < 6) throw std::runtime_error("vcd: malformed $var");
        const auto it = net_by_name.find(parts[4]);
        if (it == net_by_name.end()) {
          throw std::runtime_error("vcd: unknown net " + parts[4]);
        }
        id_to_net.emplace(parts[3], it->second);
      } else if (util::starts_with(t, "$enddefinitions")) {
        in_defs = false;
      }
      continue;
    }
    if (t[0] == '#') {
      // Manual digit parse: std::stoi would accept signs/whitespace and
      // throw logic_error subclasses; timestamps must be plain decimal and
      // stay under the cycle cap *before* any frame is allocated.
      const std::string digits{t.substr(1)};
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        throw std::runtime_error("vcd: bad timestamp: " + std::string(t));
      }
      long long stamp = 0;
      for (const char c : digits) {
        stamp = stamp * 10 + (c - '0');
        if (stamp > max_cycles) {
          throw std::runtime_error("vcd: timestamp " + digits +
                                   " exceeds cycle limit " +
                                   std::to_string(max_cycles));
        }
      }
      if (last_stamp >= 0) flush_until(static_cast<int>(stamp));
      last_stamp = static_cast<int>(stamp);
      continue;
    }
    if (t[0] == '0' || t[0] == '1') {
      const std::string sig{t.substr(1)};
      const auto it = id_to_net.find(sig);
      if (it == id_to_net.end()) throw std::runtime_error("vcd: unknown id " + sig);
      current[it->second] = t[0] == '1' ? 1 : 0;
      continue;
    }
    throw std::runtime_error("vcd: unexpected line: " + std::string(t));
  }

  VcdData out;
  out.num_nets = nl.num_nets();
  out.num_cycles = static_cast<int>(frames.size());
  out.values.reserve(frames.size() * nl.num_nets());
  for (const auto& f : frames) {
    out.values.insert(out.values.end(), f.begin(), f.end());
  }
  return out;
}

ToggleTrace trace_from_vcd(const VcdData& vcd, const netlist::Netlist& nl) {
  if (vcd.num_nets != nl.num_nets()) {
    throw std::runtime_error("trace_from_vcd: net count mismatch");
  }
  // Clock-network classification mirrors CycleSimulator's constructor.
  std::vector<bool> is_clock(nl.num_nets(), false);
  if (nl.clock_net() != netlist::kNoNet) is_clock[nl.clock_net()] = true;
  struct ClockStep {
    netlist::NetId in, en, out;
  };
  std::vector<ClockStep> steps;
  for (const netlist::CellInstId id : nl.comb_topo_order()) {
    const liberty::Cell& lc = nl.lib_cell(id);
    if (!liberty::is_clock_cell(lc.func)) continue;
    ClockStep s;
    s.in = nl.cell(id).pin_nets[0];
    s.en = lc.func == liberty::CellFunc::kCkGate ? nl.cell(id).pin_nets[1]
                                                 : netlist::kNoNet;
    s.out = nl.output_net(id);
    is_clock[s.out] = true;
    steps.push_back(s);
  }

  ToggleTrace trace(nl.num_nets(), vcd.num_cycles);
  std::vector<std::uint8_t> active(nl.num_nets(), 0);
  for (int c = 0; c < vcd.num_cycles; ++c) {
    if (nl.clock_net() != netlist::kNoNet) active[nl.clock_net()] = 1;
    for (const ClockStep& s : steps) {
      std::uint8_t a = active[s.in];
      if (s.en != netlist::kNoNet && c > 0) a = a && vcd.value(c - 1, s.en);
      active[s.out] = a;
    }
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      if (is_clock[n]) {
        trace.set(c, n, active[n] != 0, active[n] ? 2 : 0);
      } else {
        const bool v = vcd.value(c, n);
        const bool changed = c > 0 && v != vcd.value(c - 1, n);
        trace.set(c, n, v, changed ? 1 : 0);
      }
    }
  }
  return trace;
}

void save_vcd_file(const netlist::Netlist& nl, const ToggleTrace& trace,
                   const std::vector<bool>& clock_net_mask,
                   const std::string& path) {
  util::write_file(path, write_vcd(nl, trace, clock_net_mask));
}

}  // namespace atlas::sim
