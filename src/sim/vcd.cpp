#include "sim/vcd.h"

#include <algorithm>
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

/// Pops the next whitespace-separated word off `rest` ("" when none is left).
std::string_view next_word(std::string_view& rest) {
  rest = util::trim(rest);
  const std::string_view word =
      rest.substr(0, rest.find_first_of(" \t\n\v\f\r"));
  rest.remove_prefix(word.size());
  return word;
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

ToggleTrace parse_vcd(std::string_view text, const netlist::Netlist& nl,
                      int max_cycles) {
  // Keys view the netlist's names and the text itself: no string copies.
  std::unordered_map<std::string_view, netlist::NetId> net_by_name;
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    net_by_name.emplace(nl.net(id).name, id);
  }

  std::unordered_map<std::string_view, netlist::NetId> id_to_net;
  std::string_view line;
  bool in_defs = true;
  int last_stamp = -1;
  const std::size_t num_nets = nl.num_nets();
  std::vector<std::uint8_t> current(num_nets, 0);
  std::vector<std::uint8_t> levels;  // one row of num_nets levels per cycle
  int cycles = 0;

  auto flush_until = [&](int stamp) {
    // Fill cycles [cycles, stamp) with the running values. The buffer grows
    // geometrically, capped at max_cycles rows (stamp <= max_cycles).
    const std::size_t need = static_cast<std::size_t>(stamp) * num_nets;
    if (need > levels.capacity()) {
      levels.reserve(std::min(std::max(need, 2 * levels.capacity()),
                              static_cast<std::size_t>(max_cycles) * num_nets));
    }
    for (; cycles < stamp; ++cycles) {
      levels.insert(levels.end(), current.begin(), current.end());
    }
  };

  while (util::next_line(text, line)) {
    const auto t = util::trim(line);
    if (t.empty()) continue;
    if (in_defs) {
      if (util::starts_with(t, "$var")) {
        // $var wire 1 <id> <name> $end
        std::string_view words[6];
        std::string_view rest = t;
        for (std::string_view& w : words) w = next_word(rest);
        if (words[5].empty()) throw TraceError("vcd: malformed $var");
        const auto it = net_by_name.find(words[4]);
        if (it == net_by_name.end()) {
          throw TraceError("vcd: unknown net " + util::excerpt(words[4]));
        }
        id_to_net.emplace(words[3], it->second);
      } else if (util::starts_with(t, "$enddefinitions")) {
        in_defs = false;
      }
      continue;
    }
    if (t[0] == '#') {
      // Manual digit parse: std::stoi would accept signs/whitespace and
      // throw logic_error subclasses; timestamps must be plain decimal and
      // stay under the cycle cap *before* any row is allocated.
      const std::string digits{t.substr(1)};
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        throw TraceError("vcd: bad timestamp: " + util::excerpt(t));
      }
      long long stamp = 0;
      for (const char c : digits) {
        stamp = stamp * 10 + (c - '0');
        if (stamp > max_cycles) {
          throw TraceError("vcd: timestamp " + util::excerpt(digits) +
                           " exceeds cycle limit " +
                           std::to_string(max_cycles));
        }
      }
      if (last_stamp >= 0) flush_until(static_cast<int>(stamp));
      last_stamp = static_cast<int>(stamp);
      continue;
    }
    if (t[0] == '0' || t[0] == '1') {
      const auto it = id_to_net.find(t.substr(1));
      if (it == id_to_net.end()) {
        throw TraceError("vcd: unknown id " + util::excerpt(t.substr(1)));
      }
      current[it->second] = t[0] == '1' ? 1 : 0;
      continue;
    }
    throw TraceError("vcd: unexpected line: " + util::excerpt(t));
  }

  return ToggleTrace::replay(nl, cycles, std::move(levels));
}

void save_vcd_file(const netlist::Netlist& nl, const ToggleTrace& trace,
                   const std::vector<bool>& clock_net_mask,
                   const std::string& path) {
  util::write_file(path, write_vcd(nl, trace, clock_net_mask));
}

}  // namespace atlas::sim
