// Text report helpers shared by the bench harnesses and examples.
#pragma once

#include <string>
#include <vector>

#include "power/power_analyzer.h"

namespace atlas::power {

/// Multi-row group breakdown table (averages in mW with percentages).
std::string group_table(const GroupPower& average);

/// CSV of a per-cycle trace: cycle,comb,reg,clock,memory,total (uW).
std::string trace_csv(const PowerResult& result);

/// CSV of per-cycle predicted power: cycle,comb,clock,reg,total (uW; the
/// total leaves memory out, as the predictions do).
std::string prediction_csv(const std::vector<GroupPower>& per_cycle);

/// One line: the per-cycle predictions' average per group, in mW.
std::string prediction_summary(const std::vector<GroupPower>& per_cycle);

/// Mean absolute percentage error between two per-cycle scalar series.
/// Throws std::invalid_argument on size mismatch / empty input.
double mape(const std::vector<double>& labels, const std::vector<double>& preds);

/// Extract a per-cycle series of one group (or total) from a result.
enum class Series { kComb, kReg, kClock, kMemory, kRegPlusClock, kTotalNoMemory, kTotal };
std::vector<double> series_of(const PowerResult& result, Series s);

}  // namespace atlas::power
