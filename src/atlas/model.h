// The assembled ATLAS model: pre-trained encoder + three fine-tuned group
// models, with serialization and the end-user prediction API (paper Eq. 7):
//
//   P_total(cycle) = sum over sub-modules of
//       F_CT(E_g) + F_Comb(E_g, n, I, C) + F_Reg(E_g, n, I, C)
//
// Prediction consumes only the gate-level netlist and a workload trace on
// it — no layout information — and produces per-cycle power per group, per
// sub-module, per component, and for the whole design.
#pragma once

#include <string>
#include <string_view>

#include "atlas/finetune.h"
#include "atlas/pretrain.h"
#include "util/arena.h"

namespace atlas::core {

/// Per-cycle predicted power for one design under one workload.
struct Prediction {
  int num_cycles = 0;
  std::size_t num_submodules = 0;
  /// Per-cycle design-level group predictions (uW); memory is zero unless
  /// filled by the separate memory model.
  std::vector<power::GroupPower> design;                 // [cycle]
  std::vector<power::GroupPower> submodule;              // [cycle*nsm + sm]

  const power::GroupPower& at(int cycle) const {
    return design.at(static_cast<std::size_t>(cycle));
  }
  const power::GroupPower& at(int cycle, netlist::SubmoduleId sm) const {
    return submodule.at(static_cast<std::size_t>(cycle) * num_submodules +
                        static_cast<std::size_t>(sm));
  }

  /// Roll predictions up to named components (index by component id).
  std::vector<power::GroupPower> component_average(
      const netlist::Netlist& gate) const;
};

/// Everything the GBDT heads consume for one design under one workload:
/// per-sub-module static context plus, per cycle, the encoder's graph
/// embedding and the paper's extra toggle-weighted features. Computing this
/// is the expensive part of prediction (the encoder over every sub-module
/// cycle).
struct DesignEmbeddings {
  struct PerGraph {
    SubmoduleStatic st;
    ml::Matrix emb;                   // num_cycles x encoder dim
    std::vector<CycleExtras> extras;  // [cycle]
  };
  int num_cycles = 0;
  std::vector<PerGraph> graphs;  // aligned with the SubmoduleGraph vector
};

class AtlasModel {
 public:
  AtlasModel(ml::SgFormer encoder, GroupModels models);

  const ml::SgFormer& encoder() const { return encoder_; }
  const GroupModels& models() const { return models_; }

  /// Predict per-cycle post-layout power from the gate-level netlist and its
  /// workload trace. `graphs` must come from build_submodule_graphs(gate).
  /// Exactly encode() followed by predict_from_embeddings(), so it runs the
  /// segment encoder on the global pool like every other inference caller.
  Prediction predict(const netlist::Netlist& gate,
                     const std::vector<graph::SubmoduleGraph>& graphs,
                     const sim::ToggleTrace& gate_trace) const;

  /// Stage 1 for one design: encode_batch() over a single item with a
  /// local arena. Collects the head inputs for every (sub-module, cycle);
  /// reusable across predictions with the same workload.
  DesignEmbeddings encode(const netlist::Netlist& gate,
                          const std::vector<graph::SubmoduleGraph>& graphs,
                          const sim::ToggleTrace& gate_trace) const;

  /// One design in an encode batch (the serve dispatcher's formed batch
  /// grouped by model, one training design's workloads in fine-tuning, or
  /// encode()'s single item).
  struct EncodeItem {
    const netlist::Netlist* gate = nullptr;
    const std::vector<graph::SubmoduleGraph>* graphs = nullptr;
    const sim::ToggleTrace* trace = nullptr;
    DesignEmbeddings* out = nullptr;  // filled by encode_batch
  };

  /// Stage 1 over a whole batch: the one inference encode path (only
  /// pre-training runs SgFormer::forward_train). Each distinct (sub-module,
  /// cycle) segment runs the whole encoder (feature fill through mean pool)
  /// as one pool task in per-thread scratch sized by the largest segment,
  /// and writes its embedding row directly. Cycles of a graph whose toggle
  /// channel repeats an earlier cycle's (confirmed by exact compare, not
  /// just the hash) are encoded once and copied. Each graph's normalized
  /// adjacency is built once and shared across its cycles; the memo tables
  /// come from `arena` and are rewound before returning. Every row is
  /// bit-identical to a per-cycle SgFormer::forward_train, at any thread
  /// count and any batch composition (atlas_test pins it against a
  /// forward_train reference).
  void encode_batch(const EncodeItem* items, std::size_t n,
                    util::Arena& arena) const;

  /// Stage 2: GBDT heads only. Bit-identical to predict() when `emb` comes
  /// from encode() or encode_batch() on the same inputs — pinned by tests;
  /// the serve feature cache depends on it. Head feature rows for all
  /// (sub-module, cycle) pairs are assembled with fill_*_row into one block
  /// and evaluated with the forests' batched SoA traversal; `arena`
  /// (optional) supplies the scratch.
  Prediction predict_from_embeddings(
      const netlist::Netlist& gate,
      const std::vector<graph::SubmoduleGraph>& graphs,
      const DesignEmbeddings& emb, util::Arena* arena = nullptr) const;

  /// The artifact: encoder, then the CT, Comb and Reg heads.
  std::string to_bytes() const;
  /// Decodes an artifact. Throws util::SerializeError on anything but the
  /// exact bytes of a model whose encoder reads the graph features and whose
  /// heads read rows of their fill_*_row widths.
  static AtlasModel from_bytes(std::string_view bytes);

  void save(const std::string& path) const;
  /// from_bytes() over the file's contents.
  static AtlasModel load(const std::string& path);

 private:
  ml::SgFormer encoder_;
  GroupModels models_;
};

}  // namespace atlas::core
