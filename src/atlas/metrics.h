// Evaluation metrics and Table III-style result rows.
#pragma once

#include <string>
#include <vector>

#include "atlas/model.h"
#include "power/power_report.h"

namespace atlas::core {

/// MAPE per power group for one (design, workload) evaluation — one row of
/// the paper's Table III, for either ATLAS or the gate-level baseline.
struct GroupMape {
  double comb = 0.0;
  double clock = 0.0;
  double reg = 0.0;
  double clock_plus_reg = 0.0;
  double total = 0.0;  // total excluding memory (paper convention)
};

/// Compare an ATLAS prediction against the golden per-cycle result.
GroupMape evaluate_prediction(const power::PowerResult& golden,
                              const Prediction& prediction);

/// Compare the gate-level PTPX-substitute baseline against golden.
GroupMape evaluate_baseline(const power::PowerResult& golden,
                            const power::PowerResult& gate_level);

/// Pearson correlation between two per-cycle series (trace-shape metric).
double correlation(const std::vector<double>& a, const std::vector<double>& b);

/// Extract the per-cycle total-no-memory series from a prediction.
std::vector<double> prediction_series_total(const Prediction& p);

std::string format_group_mape(const GroupMape& m);

}  // namespace atlas::core
