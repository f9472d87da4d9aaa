#include "router/fleet_obs.h"

#include <map>
#include <string_view>

#include "util/strings.h"

namespace atlas::router {
namespace {

/// Inject shard="<id>" into one sample line (`name{labels} value` or
/// `name value`). Uses the last '}' as the label-set close so label values
/// containing '{' cannot fool it; a line with neither braces nor a value
/// separator is passed through untouched.
std::string inject_shard(std::string_view line, const std::string& shard) {
  const std::string label = "shard=\"" + shard + "\"";
  const std::size_t open = line.find('{');
  const std::size_t space = line.find(' ');
  if (open != std::string_view::npos &&
      (space == std::string_view::npos || open < space)) {
    const std::size_t close = line.rfind('}');
    if (close == std::string_view::npos || close < open) {
      return std::string(line);
    }
    std::string out(line.substr(0, close));
    if (close > open + 1) out += ',';
    out += label;
    out += line.substr(close);
    return out;
  }
  if (space == std::string_view::npos) return std::string(line);
  std::string out(line.substr(0, space));
  out += '{';
  out += label;
  out += '}';
  out += line.substr(space);
  return out;
}

/// True when `sample` belongs to histogram family `family`: the exact name
/// or one of the _bucket/_sum/_count sub-series.
bool in_family(std::string_view sample, const std::string& family) {
  if (!util::starts_with(sample, family)) return false;
  const std::string_view rest = sample.substr(family.size());
  return rest.empty() || rest == "_bucket" || rest == "_sum" ||
         rest == "_count";
}

/// True when the recorded "# TYPE <name> <kind>" header declares a
/// histogram family.
bool is_histogram(const std::string& type_line) {
  const std::size_t last_space = type_line.rfind(' ');
  return last_space != std::string::npos &&
         type_line.substr(last_space + 1) == "histogram";
}

}  // namespace

std::string merge_prometheus(
    const std::vector<std::pair<std::string, std::string>>& shards) {
  struct Family {
    std::string type_line;  // "# TYPE <name> <kind>"; first seen wins
    std::vector<std::string> samples;
  };
  std::map<std::string, Family> families;
  for (const auto& [shard, text] : shards) {
    // Each input is a well-formed exposition: a family's # TYPE header
    // precedes its samples, so the current family tracks sub-series
    // (histogram _bucket/_sum/_count) without a suffix-stripping heuristic.
    std::string current;
    std::string_view rest = text;
    std::string_view line;
    while (util::next_line(rest, line)) {
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) continue;
      if (util::starts_with(line, "# TYPE ")) {
        const std::string_view header = util::trim(line.substr(7));
        if (header.empty()) continue;
        current.assign(header.substr(0, header.find_first_of(" \t")));
        Family& fam = families[current];
        if (fam.type_line.empty()) fam.type_line.assign(line);
        continue;
      }
      if (line[0] == '#') continue;  // HELP and other comments: dropped
      const std::size_t name_end = line.find_first_of("{ ");
      if (name_end == std::string_view::npos) continue;
      const std::string_view name = line.substr(0, name_end);
      Family& fam = !current.empty() && in_family(name, current)
                        ? families[current]
                        : families[std::string(name)];
      fam.samples.push_back(inject_shard(line, shard));
    }
  }
  // When a histogram family lives on only a subset of shards, another shard
  // can export a standalone family whose *name* is one of the histogram's
  // sub-series names (e.g. a plain `lat_us_count` counter next to shard 1's
  // `lat_us` histogram). Grouped naively that yields two # TYPE headers
  // covering the same sample name — an invalid exposition scrapers reject.
  // Fold such families into the histogram they alias: their samples join
  // the histogram block and their own TYPE header is dropped.
  for (auto it = families.begin(); it != families.end();) {
    std::string base;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      if (it->first.size() <= suffix.size() ||
          it->first.compare(it->first.size() - suffix.size(), suffix.size(),
                            suffix) != 0) {
        continue;
      }
      const std::string candidate =
          it->first.substr(0, it->first.size() - suffix.size());
      const auto host = families.find(candidate);
      if (host != families.end() && is_histogram(host->second.type_line)) {
        base = candidate;
        break;
      }
    }
    if (base.empty()) {
      ++it;
      continue;
    }
    Family& host = families[base];
    host.samples.insert(host.samples.end(), it->second.samples.begin(),
                        it->second.samples.end());
    it = families.erase(it);
  }

  std::string out;
  for (const auto& [name, fam] : families) {
    if (!fam.type_line.empty()) {
      out += fam.type_line;
      out += '\n';
    }
    for (const std::string& sample : fam.samples) {
      out += sample;
      out += '\n';
    }
  }
  return out;
}

}  // namespace atlas::router
