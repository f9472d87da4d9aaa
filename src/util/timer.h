// Wall-clock timing helpers for the runtime experiments (Table IV).
#pragma once

#include <chrono>
#include <string>
#include <unordered_map>
#include <vector>

namespace atlas::util {

/// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or last reset().
  double seconds() const;

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Named accumulating timers: the Table IV harness attributes wall time to
/// pipeline phases (preprocess / inference / P&R / simulation).
class PhaseTimers {
 public:
  /// Add `seconds` to the named phase (creates it on first use).
  void add(const std::string& phase, double seconds);

  /// Fold another timer set into this one (phase order: ours first, then
  /// any new phases in `other`'s order). Lets parallel pipeline stages
  /// time themselves locally and merge on the main thread afterwards.
  void merge(const PhaseTimers& other);

  /// Total accumulated seconds for a phase (0 if never recorded).
  double get(const std::string& phase) const;

  /// Phases in first-recorded order.
  const std::vector<std::string>& phases() const { return order_; }

 private:
  std::unordered_map<std::string, double> acc_;
  std::vector<std::string> order_;
};

/// RAII scope timer that adds its lifetime to a PhaseTimers entry.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimers& timers, std::string phase)
      : timers_(timers), phase_(std::move(phase)) {}
  ~ScopedPhase() { timers_.add(phase_, timer_.seconds()); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimers& timers_;
  std::string phase_;
  Timer timer_;
};

}  // namespace atlas::util
