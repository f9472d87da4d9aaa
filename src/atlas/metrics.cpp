#include "atlas/metrics.h"

#include <cmath>
#include <stdexcept>

#include "util/strings.h"

namespace atlas::core {
namespace {

std::vector<double> golden_series(const power::PowerResult& golden,
                                  power::Series s) {
  return power::series_of(golden, s);
}

std::vector<double> prediction_series(const Prediction& p, power::Series s) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(p.num_cycles));
  for (int c = 0; c < p.num_cycles; ++c) {
    const power::GroupPower& g = p.at(c);
    switch (s) {
      case power::Series::kComb: out.push_back(g.comb); break;
      case power::Series::kReg: out.push_back(g.reg); break;
      case power::Series::kClock: out.push_back(g.clock); break;
      case power::Series::kMemory: out.push_back(g.memory); break;
      case power::Series::kRegPlusClock: out.push_back(g.reg + g.clock); break;
      case power::Series::kTotalNoMemory: out.push_back(g.total_no_memory()); break;
      case power::Series::kTotal: out.push_back(g.total()); break;
    }
  }
  return out;
}

}  // namespace

GroupMape evaluate_prediction(const power::PowerResult& golden,
                              const Prediction& prediction) {
  GroupMape m;
  using power::Series;
  m.comb = power::mape(golden_series(golden, Series::kComb),
                       prediction_series(prediction, Series::kComb));
  m.clock = power::mape(golden_series(golden, Series::kClock),
                        prediction_series(prediction, Series::kClock));
  m.reg = power::mape(golden_series(golden, Series::kReg),
                      prediction_series(prediction, Series::kReg));
  m.clock_plus_reg =
      power::mape(golden_series(golden, Series::kRegPlusClock),
                  prediction_series(prediction, Series::kRegPlusClock));
  m.total = power::mape(golden_series(golden, Series::kTotalNoMemory),
                        prediction_series(prediction, Series::kTotalNoMemory));
  return m;
}

GroupMape evaluate_baseline(const power::PowerResult& golden,
                            const power::PowerResult& gate_level) {
  GroupMape m;
  using power::Series;
  m.comb = power::mape(power::series_of(golden, Series::kComb),
                       power::series_of(gate_level, Series::kComb));
  m.clock = power::mape(power::series_of(golden, Series::kClock),
                        power::series_of(gate_level, Series::kClock));
  m.reg = power::mape(power::series_of(golden, Series::kReg),
                      power::series_of(gate_level, Series::kReg));
  m.clock_plus_reg =
      power::mape(power::series_of(golden, Series::kRegPlusClock),
                  power::series_of(gate_level, Series::kRegPlusClock));
  m.total = power::mape(power::series_of(golden, Series::kTotalNoMemory),
                        power::series_of(gate_level, Series::kTotalNoMemory));
  return m;
}

double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("correlation: size mismatch or empty");
  }
  const double n = static_cast<double>(a.size());
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va <= 0 || vb <= 0) return 0.0;
  return cov / std::sqrt(va * vb);
}

std::vector<double> prediction_series_total(const Prediction& p) {
  return prediction_series(p, power::Series::kTotalNoMemory);
}

std::string format_group_mape(const GroupMape& m) {
  return util::format(
      "comb=%.2f%% clock=%.2f%% reg=%.2f%% clock+reg=%.2f%% total=%.2f%%",
      m.comb, m.clock, m.reg, m.clock_plus_reg, m.total);
}

}  // namespace atlas::core
