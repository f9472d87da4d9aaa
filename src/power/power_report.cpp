#include "power/power_report.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace atlas::power {

std::string group_table(const GroupPower& avg) {
  std::ostringstream os;
  const double total = avg.total();
  auto row = [&](const char* name, double uw) {
    os << util::format("  %-14s %10.4f mW  %6.2f %%\n", name, uw / 1e3,
                       total > 0 ? 100.0 * uw / total : 0.0);
  };
  os << "power group breakdown (average per cycle):\n";
  row("combinational", avg.comb);
  row("register", avg.reg);
  row("clock tree", avg.clock);
  row("memory", avg.memory);
  row("total", total);
  return os.str();
}

std::string trace_csv(const PowerResult& result) {
  std::ostringstream os;
  os << "cycle,comb_uw,reg_uw,clock_uw,memory_uw,total_uw\n";
  for (int c = 0; c < result.num_cycles(); ++c) {
    const GroupPower& g = result.design(c);
    os << util::format("%d,%.4f,%.4f,%.4f,%.4f,%.4f\n", c, g.comb, g.reg,
                       g.clock, g.memory, g.total());
  }
  return os.str();
}

std::string prediction_csv(const std::vector<GroupPower>& per_cycle) {
  std::ostringstream os;
  os << "cycle,comb_uw,clock_uw,reg_uw,total_uw\n";
  for (std::size_t c = 0; c < per_cycle.size(); ++c) {
    const GroupPower& g = per_cycle[c];
    os << util::format("%zu,%.4f,%.4f,%.4f,%.4f\n", c, g.comb, g.clock, g.reg,
                       g.total_no_memory());
  }
  return os.str();
}

std::string prediction_summary(const std::vector<GroupPower>& per_cycle) {
  GroupPower avg;
  for (const GroupPower& g : per_cycle) avg += g;
  const double inv =
      per_cycle.empty() ? 0.0 : 1.0 / static_cast<double>(per_cycle.size());
  return util::format(
      "predicted post-layout power (avg over %zu cycles): comb=%.3f "
      "clock=%.3f reg=%.3f total=%.3f mW\n",
      per_cycle.size(), avg.comb * inv / 1e3, avg.clock * inv / 1e3,
      avg.reg * inv / 1e3, avg.total_no_memory() * inv / 1e3);
}

double mape(const std::vector<double>& labels, const std::vector<double>& preds) {
  if (labels.size() != preds.size()) {
    throw std::invalid_argument("mape: series size mismatch");
  }
  if (labels.empty()) throw std::invalid_argument("mape: empty series");
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 0.0) {
      // Zero label with zero prediction contributes zero error; a nonzero
      // prediction against a zero label counts as 100% (paper's convention
      // for the absent gate-level clock tree).
      sum += preds[i] == 0.0 ? 0.0 : 1.0;
    } else {
      sum += std::abs(labels[i] - preds[i]) / std::abs(labels[i]);
    }
    ++counted;
  }
  return 100.0 * sum / static_cast<double>(counted);
}

std::vector<double> series_of(const PowerResult& result, Series s) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(result.num_cycles()));
  for (int c = 0; c < result.num_cycles(); ++c) {
    const GroupPower& g = result.design(c);
    switch (s) {
      case Series::kComb: out.push_back(g.comb); break;
      case Series::kReg: out.push_back(g.reg); break;
      case Series::kClock: out.push_back(g.clock); break;
      case Series::kMemory: out.push_back(g.memory); break;
      case Series::kRegPlusClock: out.push_back(g.reg + g.clock); break;
      case Series::kTotalNoMemory: out.push_back(g.total_no_memory()); break;
      case Series::kTotal: out.push_back(g.total()); break;
    }
  }
  return out;
}

}  // namespace atlas::power
