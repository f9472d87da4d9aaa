// ATLAS fine-tuning (paper Sec. V).
//
// Three lightweight GBDT models, one per power group, consume the
// pre-trained encoder's per-(sub-module, cycle) graph embedding E_g plus
// the paper's hand-selected gate-level features:
//
//   F_CT  (E_g)                                  — clock tree (layout-only!)
//   F_Comb(E_g, n_Comb, I_Comb, C_Comb)          — combinational
//   F_Reg (E_g, n_Reg,  I_Reg,  C_Reg)           — register
//
// where I_* / C_* are cell internal energy / load capacitance summed over
// the group's cells weighted by each cell's per-cycle output toggle, exactly
// as described in the paper. Labels are the golden post-layout per-cycle
// per-sub-module group powers.
#pragma once

#include <vector>

#include "atlas/preprocess.h"
#include "ml/gbdt.h"
#include "ml/sgformer.h"

namespace atlas::core {

/// Static (cycle-independent) per-sub-module feature context on N_g.
struct SubmoduleStatic {
  int n_comb = 0;
  int n_reg = 0;
  /// Per-node (internal energy, load cap) for the toggle-weighted sums,
  /// aligned with the sub-module graph's node indexing. Internal energy
  /// excludes register clock-pin energy (that burns every cycle, not per
  /// output toggle) — it is accumulated in clockpin_reg_fj instead.
  std::vector<float> internal_fj;
  std::vector<float> cap_ff;
  double clockpin_reg_fj = 0.0;  // sum of register clock-pin energies (per edge)
  double leak_comb_uw = 0.0;
  double leak_reg_uw = 0.0;
  double volt_sq = 0.81;         // library voltage squared
  double period_ns = 1.0;
};

SubmoduleStatic compute_submodule_static(const netlist::Netlist& gate,
                                         const graph::SubmoduleGraph& g);

/// The paper's per-cycle extra features for one sub-module.
struct CycleExtras {
  float i_comb = 0.0f, c_comb = 0.0f;
  float i_reg = 0.0f, c_reg = 0.0f;
};

CycleExtras compute_cycle_extras(const graph::SubmoduleGraph& g,
                                 const SubmoduleStatic& st,
                                 const sim::ToggleTrace& gate_trace, int cycle);

/// Analytic gate-level power estimates (uW) for one sub-module cycle. The
/// GBDTs regress the *ratio* of golden post-layout power to these estimates:
/// depth-limited trees cannot extrapolate raw magnitudes across designs of
/// different size, but the layout uplift ratio is smooth and bounded. The
/// prediction multiplies the ratio back (see AtlasModel::predict).
double comb_physics_uw(const SubmoduleStatic& st, const CycleExtras& ex);
double reg_physics_uw(const SubmoduleStatic& st, const CycleExtras& ex);
/// Clock-tree normalizer: per-register scale (the tree serves the registers).
double ct_normalizer(const SubmoduleStatic& st);

/// Stabilizer added to the physics estimates before forming ratios.
inline constexpr double kRatioEps = 1.0;  // uW

struct FinetuneConfig {
  ml::GbdtConfig gbdt;   // paper: 500 trees, depth 5
  /// Stride over cycles when building training rows (1 = all cycles).
  int cycle_stride = 1;
};

/// The three fine-tuned group models.
struct GroupModels {
  ml::GbdtRegressor f_ct;
  ml::GbdtRegressor f_comb;
  ml::GbdtRegressor f_reg;
};

/// Feature-matrix dimensions for each model given encoder dim d:
///   CT: d      Comb: d + 3      Reg: d + 3
std::size_t ct_dim(std::size_t d);
std::size_t comb_dim(std::size_t d);
std::size_t reg_dim(std::size_t d);

/// Assemble one head input row: the d-float graph embedding `emb`, then
/// (for Comb/Reg) the group's n, I, C. Training and prediction both build
/// their rows here.
void fill_ct_row(const float* emb, std::size_t d, float* row);
void fill_comb_row(const float* emb, std::size_t d, const SubmoduleStatic& st,
                   const CycleExtras& ex, float* row);
void fill_reg_row(const float* emb, std::size_t d, const SubmoduleStatic& st,
                  const CycleExtras& ex, float* row);

/// Train the three group models from the given training designs (all
/// workloads), using `encoder` embeddings on N_g graphs.
GroupModels finetune_models(const std::vector<const DesignData*>& designs,
                            const ml::SgFormer& encoder,
                            const FinetuneConfig& config);

}  // namespace atlas::core
