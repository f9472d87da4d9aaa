#include "util/timer.h"

namespace atlas::util {

double Timer::seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

void PhaseTimers::add(const std::string& phase, double seconds) {
  auto [it, inserted] = acc_.try_emplace(phase, 0.0);
  if (inserted) order_.push_back(phase);
  it->second += seconds;
}

void PhaseTimers::merge(const PhaseTimers& other) {
  for (const std::string& phase : other.phases()) {
    add(phase, other.get(phase));
  }
}

double PhaseTimers::get(const std::string& phase) const {
  const auto it = acc_.find(phase);
  return it == acc_.end() ? 0.0 : it->second;
}

}  // namespace atlas::util
