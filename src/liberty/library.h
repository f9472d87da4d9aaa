// Technology-library model: cells, pins, and power lookup tables.
//
// Substitutes for the TSMC 40nm .lib the paper uses. ATLAS only consumes the
// library through lookup tables (pin capacitance, per-transition internal
// energy vs. output load, leakage), so the model keeps exactly those.
//
// Unit system (consistent across the repo):
//   voltage            V      (nominal 0.9 V)
//   capacitance        fF
//   energy             fJ     (0.5 * C[fF] * V^2 -> fJ)
//   time               ns     (clock period 1 ns = 1 GHz, as in the paper)
//   power              uW     (fJ per ns), design totals reported in mW
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "liberty/types.h"

namespace atlas::liberty {

using CellId = std::uint32_t;
inline constexpr CellId kInvalidCell = static_cast<CellId>(-1);

enum class PinDir : std::uint8_t { kInput, kOutput };

struct Pin {
  std::string name;
  PinDir dir = PinDir::kInput;
  double cap_ff = 0.0;      // input pin capacitance
  double max_cap_ff = 0.0;  // output drive limit (outputs only)
  bool is_clock = false;    // clock input pin (CK / CLK / EN of a latch)
};

/// One library cell (one drive-strength variant of one function).
struct Cell {
  std::string name;            // e.g. "NAND2_X1"
  CellFunc func = CellFunc::kInv;
  NodeType type = NodeType::kInv;
  int drive = 1;               // 1 / 2 / 4
  double area_um2 = 0.0;
  double leakage_uw = 0.0;

  /// Pin order convention (relied on by the simulator):
  ///   combinational:  [inputs in eval order..., Y]
  ///   DFF:            [D, CK, Q]      DFFR: [D, CK, RN, Q]
  ///   LATCH:          [D, EN, Q]
  ///   CKBUF/CKINV:    [CK, Y]         CKGATE: [CK, EN, GCK]
  ///   SRAM:           [CLK, CSB, WEB, A0..A{na-1}, D0..D{nd-1}, Q0..Q{nd-1}]
  std::vector<Pin> pins;

  /// Internal-energy lookup table: energy_fj[i] is the per-output-transition
  /// internal energy at load energy_index_ff[i]; linear interpolation, clamped
  /// extrapolation. Empty for macros (they use access_energy_fj).
  std::vector<double> energy_index_ff;
  std::vector<double> energy_fj;

  /// Sequential / clock-gate cells: internal energy drawn per clock edge at
  /// the clock pin, regardless of data switching (dominant register power).
  double clock_pin_energy_fj = 0.0;

  /// Macros only: energy per read/write access and idle leakage already in
  /// leakage_uw (paper Sec. VI-B memory model uses exactly these numbers).
  double read_energy_fj = 0.0;
  double write_energy_fj = 0.0;

  int output_pin() const;  // index of the (single) output pin; -1 for none
  std::optional<int> pin_index(std::string_view pin_name) const;
};

class Library {
 public:
  explicit Library(std::string name = "atlas40lp", double voltage = 0.9,
                   double clock_period_ns = 1.0);

  const std::string& name() const { return name_; }
  double voltage() const { return voltage_; }
  double clock_period_ns() const { return clock_period_ns_; }
  double frequency_ghz() const { return 1.0 / clock_period_ns_; }

  CellId add_cell(Cell cell);
  std::size_t size() const { return cells_.size(); }

  const Cell& cell(CellId id) const { return cells_.at(id); }

  std::optional<CellId> find(std::string_view name) const;
  /// Lookup that throws with the cell name on miss.
  CellId must(std::string_view name) const;

  /// The lowest-drive variant implementing `func`; throws if absent.
  CellId cell_for(CellFunc func, int drive = 1) const;

  /// Next stronger variant of the same function, or nullopt at max drive.
  std::optional<CellId> next_drive_up(CellId id) const;

  /// Per-transition internal energy at the given output load (interpolated).
  double internal_energy_fj(CellId id, double load_ff) const;

  /// ½·C·V² in fJ for a capacitance in fF at library voltage.
  double switching_energy_fj(double cap_ff) const;

  const std::vector<Cell>& cells() const { return cells_; }

 private:
  std::string name_;
  double voltage_;
  double clock_period_ns_;
  std::vector<Cell> cells_;
  std::vector<std::pair<std::string, CellId>> by_name_;  // sorted
};

/// Build the synthetic 40nm-class default library used throughout the repo.
/// Deterministic (no RNG): realistic relative magnitudes between cell types.
Library make_default_library();

}  // namespace atlas::liberty
