#include "liberty/library.h"

#include <algorithm>
#include <stdexcept>

namespace atlas::liberty {

int Cell::output_pin() const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].dir == PinDir::kOutput) return static_cast<int>(i);
  }
  return -1;
}

std::optional<int> Cell::pin_index(std::string_view pin_name) const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].name == pin_name) return static_cast<int>(i);
  }
  return std::nullopt;
}

Library::Library(std::string name, double voltage, double clock_period_ns)
    : name_(std::move(name)), voltage_(voltage),
      clock_period_ns_(clock_period_ns) {
  if (voltage_ <= 0 || clock_period_ns_ <= 0) {
    throw std::invalid_argument("Library: voltage and period must be positive");
  }
}

CellId Library::add_cell(Cell cell) {
  if (find(cell.name)) {
    throw std::invalid_argument("Library: duplicate cell name " + cell.name);
  }
  if (cell.energy_index_ff.size() != cell.energy_fj.size()) {
    throw std::invalid_argument("Library: LUT index/value size mismatch in " +
                                cell.name);
  }
  const CellId id = static_cast<CellId>(cells_.size());
  const auto pos = std::lower_bound(
      by_name_.begin(), by_name_.end(), cell.name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  by_name_.insert(pos, {cell.name, id});
  cells_.push_back(std::move(cell));
  return id;
}

std::optional<CellId> Library::find(std::string_view name) const {
  const auto pos = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (pos != by_name_.end() && pos->first == name) return pos->second;
  return std::nullopt;
}

CellId Library::must(std::string_view name) const {
  if (const auto id = find(name)) return *id;
  throw std::out_of_range("Library: no cell named " + std::string(name));
}

CellId Library::cell_for(CellFunc func, int drive) const {
  CellId best = kInvalidCell;
  for (CellId id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    if (c.func != func) continue;
    if (c.drive == drive) return id;
    if (best == kInvalidCell || c.drive < cells_[best].drive) best = id;
  }
  if (best == kInvalidCell) {
    throw std::out_of_range(std::string("Library: no cell implements ") +
                            std::string(cell_func_name(func)));
  }
  return best;
}

std::optional<CellId> Library::next_drive_up(CellId id) const {
  const Cell& c = cell(id);
  CellId best = kInvalidCell;
  for (CellId other = 0; other < cells_.size(); ++other) {
    const Cell& o = cells_[other];
    if (o.func != c.func || o.drive <= c.drive) continue;
    if (best == kInvalidCell || o.drive < cells_[best].drive) best = other;
  }
  if (best == kInvalidCell) return std::nullopt;
  return best;
}

double Library::internal_energy_fj(CellId id, double load_ff) const {
  const Cell& c = cell(id);
  const auto& xs = c.energy_index_ff;
  const auto& ys = c.energy_fj;
  if (xs.empty()) return 0.0;
  if (xs.size() == 1 || load_ff <= xs.front()) return ys.front();
  if (load_ff >= xs.back()) return ys.back();
  // xs is ascending (validated by the default builder / parser).
  const auto it = std::upper_bound(xs.begin(), xs.end(), load_ff);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double t = (load_ff - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

double Library::switching_energy_fj(double cap_ff) const {
  return 0.5 * cap_ff * voltage_ * voltage_;
}

}  // namespace atlas::liberty
