#include "atlas/pretrain.h"

#include <cmath>
#include <stdexcept>

#include "graph/submodule_graph.h"
#include "ml/losses.h"
#include "util/rng.h"

namespace atlas::core {

using graph::SubmoduleGraph;
using ml::Matrix;

namespace {

struct Sample {
  const DesignData* design = nullptr;
  std::size_t graph_idx = 0;
  std::size_t slot = 0;  // index of (design, graph) in the sample universe
  int workload = 0;
  int cycle = 0;
};

/// The normalized adjacencies of one (design, graph) at the three stages,
/// built once per training run.
struct StageAdjacency {
  ml::SgFormer::NormAdjacency gate, plus, post;
};

/// Per-sample forward state within a batch. Reused batch to batch, so the
/// activation buffers keep their storage.
struct SampleState {
  ml::SgFormer::Activations masked;  // masked gate graph (tasks #1-#3)
  ml::SgFormer::Activations gate;    // unmasked gate graph (CL anchor)
  ml::SgFormer::Activations plus;    // N_g+ graph (CL1 positive)
  ml::SgFormer::Activations post;    // N_p graph (CL2 positive)
  std::vector<std::uint32_t> toggle_nodes;  // masked node indices
  std::vector<int> toggle_labels;
  std::vector<std::uint32_t> type_nodes;
  std::vector<int> type_labels;
};

int toggle_bit(const SubmoduleGraph& g, const sim::ToggleTrace& trace, int cycle,
               std::uint32_t node) {
  const netlist::NetId net = g.out_net[node];
  if (net == netlist::kNoNet) return 0;
  return trace.transitions(cycle, net) > 0 ? 1 : 0;
}

}  // namespace

PretrainResult pretrain_encoder(const std::vector<const DesignData*>& designs,
                                const PretrainConfig& config,
                                const TaskMask& tasks) {
  if (designs.empty()) throw std::invalid_argument("pretrain: no designs");
  util::Rng rng(config.seed);

  ml::SgFormer::Config enc_cfg;
  enc_cfg.in_dim = graph::kFeatureDim;
  enc_cfg.dim = config.dim;
  enc_cfg.seed = rng.next_u64();
  ml::SgFormer encoder(enc_cfg);

  util::Rng head_rng(rng.next_u64());
  ml::Mlp toggle_head({config.dim, config.dim, 2}, head_rng);
  ml::Mlp type_head({config.dim, config.dim, liberty::kNumNodeTypes}, head_rng);
  ml::Mlp size_head({config.dim, config.dim, 1}, head_rng);

  std::vector<ml::ParamRef> params;
  encoder.collect_params(params);
  toggle_head.collect_params(params);
  type_head.collect_params(params);
  size_head.collect_params(params);
  ml::AdamConfig adam_cfg;
  adam_cfg.lr = static_cast<float>(config.lr);
  ml::Adam adam(params, adam_cfg);

  PretrainResult result{std::move(encoder), {}};
  ml::SgFormer& enc = result.encoder;

  // Sample universe: every (design, graph); cycles drawn fresh per epoch.
  std::vector<std::pair<const DesignData*, std::size_t>> universe;
  for (const DesignData* d : designs) {
    if (d->workloads.empty()) throw std::invalid_argument("pretrain: design has no workloads");
    for (std::size_t g = 0; g < d->gate_graphs.size(); ++g) {
      universe.emplace_back(d, g);
    }
  }
  if (universe.empty()) throw std::invalid_argument("pretrain: no sub-module graphs");
  const auto adjacency_of = [](const SubmoduleGraph& g) {
    return ml::SgFormer::build_norm_adjacency(g.num_nodes(), &g.edges);
  };
  std::vector<StageAdjacency> adjacency;
  for (const auto& [d, g] : universe) {
    adjacency.push_back({adjacency_of(d->gate_graphs[g]),
                         adjacency_of(d->plus_graphs[g]),
                         adjacency_of(d->post_graphs[g])});
  }

  std::vector<SampleState> states;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Draw this epoch's samples.
    std::vector<Sample> samples;
    samples.reserve(universe.size() * static_cast<std::size_t>(config.cycles_per_graph));
    for (std::size_t u = 0; u < universe.size(); ++u) {
      const auto& [d, g] = universe[u];
      for (int k = 0; k < config.cycles_per_graph; ++k) {
        Sample s;
        s.design = d;
        s.graph_idx = g;
        s.slot = u;
        s.workload = static_cast<int>(rng.next_below(d->workloads.size()));
        s.cycle = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(
                d->workloads[static_cast<std::size_t>(s.workload)].gate_trace.num_cycles())));
        samples.push_back(s);
      }
    }
    rng.shuffle(samples);
    result.report.num_samples = static_cast<int>(samples.size());

    EpochStats stats;
    int batches = 0;
    for (std::size_t start = 0; start + 2 <= samples.size();
         start += static_cast<std::size_t>(config.batch_graphs)) {
      const std::size_t end =
          std::min(samples.size(), start + static_cast<std::size_t>(config.batch_graphs));
      const std::size_t bsz = end - start;
      if (bsz < 2) break;  // contrastive losses need >= 2 graphs

      enc.zero_grad();
      toggle_head.zero_grad();
      type_head.zero_grad();
      size_head.zero_grad();

      states.resize(bsz);
      Matrix masked_embs(bsz, config.dim), anchors(bsz, config.dim),
          pos_plus(bsz, config.dim), pos_post(bsz, config.dim);
      std::vector<float> size_targets(bsz);

      // ---- Forward all graphs of the batch --------------------------------
      for (std::size_t b = 0; b < bsz; ++b) {
        const Sample& s = samples[start + b];
        SampleState& st = states[b];
        const StageAdjacency& adj = adjacency[s.slot];
        const auto& wl = s.design->workloads[static_cast<std::size_t>(s.workload)];
        const SubmoduleGraph& gg = s.design->gate_graphs[s.graph_idx];
        const SubmoduleGraph& gp = s.design->plus_graphs[s.graph_idx];
        const SubmoduleGraph& gq = s.design->post_graphs[s.graph_idx];

        // Masked gate graph.
        Matrix& feats = st.masked.x;
        graph::fill_cycle_features(gg, wl.gate_trace, s.cycle, feats);
        const std::size_t n = gg.num_nodes();
        st.toggle_nodes.clear();
        st.toggle_labels.clear();
        st.type_nodes.clear();
        st.type_labels.clear();
        const int n_mask = std::max<int>(1, static_cast<int>(
                                                std::lround(config.mask_fraction *
                                                            static_cast<double>(n))));
        for (int m = 0; m < n_mask; ++m) {
          const auto node = static_cast<std::uint32_t>(rng.next_below(n));
          st.toggle_nodes.push_back(node);
          st.toggle_labels.push_back(toggle_bit(gg, wl.gate_trace, s.cycle, node));
          feats.at(node, graph::kToggleOffset) = 0.0f;
          feats.at(node, graph::kMaskToggleFlag) = 1.0f;
        }
        for (int m = 0; m < n_mask; ++m) {
          const auto node = static_cast<std::uint32_t>(rng.next_below(n));
          st.type_nodes.push_back(node);
          st.type_labels.push_back(gg.node_type[node]);
          for (int t = 0; t < liberty::kNumNodeTypes; ++t) {
            feats.at(node, static_cast<std::size_t>(graph::kTypeOffset + t)) = 0.0f;
          }
          feats.at(node, graph::kMaskTypeFlag) = 1.0f;
        }
        enc.forward_train(adj.gate, st.masked, masked_embs.row(b));

        // Unmasked gate graph (CL anchor).
        graph::fill_cycle_features(gg, wl.gate_trace, s.cycle, st.gate.x);
        enc.forward_train(adj.gate, st.gate, anchors.row(b));

        // N_g+ positive.
        graph::fill_cycle_features(gp, wl.plus_trace, s.cycle, st.plus.x);
        enc.forward_train(adj.plus, st.plus, pos_plus.row(b));

        // N_p positive.
        graph::fill_cycle_features(gq, wl.post_trace, s.cycle, st.post.x);
        enc.forward_train(adj.post, st.post, pos_post.row(b));

        size_targets[b] = std::log1p(static_cast<float>(n));
      }

      // ---- Task #1: masked toggle ------------------------------------------
      // Gather masked node embeddings across the batch.
      std::vector<Matrix> d_node_masked(bsz);
      for (std::size_t b = 0; b < bsz; ++b) {
        d_node_masked[b] = Matrix(states[b].masked.n, config.dim);
      }
      if (tasks.toggle) {
        std::size_t total = 0;
        for (const SampleState& st : states) total += st.toggle_nodes.size();
        Matrix gathered(total, config.dim);
        std::vector<int> labels;
        labels.reserve(total);
        std::size_t row = 0;
        for (const SampleState& st : states) {
          for (std::size_t m = 0; m < st.toggle_nodes.size(); ++m) {
            const float* src = st.masked.node_emb.row(st.toggle_nodes[m]);
            std::copy(src, src + config.dim, gathered.row(row));
            labels.push_back(st.toggle_labels[m]);
            ++row;
          }
        }
        const Matrix logits = toggle_head.forward(gathered);
        const ml::LossGrad lg = ml::softmax_cross_entropy(logits, labels);
        stats.loss_toggle += lg.loss;
        stats.acc_toggle += ml::accuracy(logits, labels);
        const Matrix dg = toggle_head.backward(lg.grad);
        row = 0;
        for (std::size_t b = 0; b < bsz; ++b) {
          for (const std::uint32_t node : states[b].toggle_nodes) {
            const float* src = dg.row(row++);
            float* dst = d_node_masked[b].row(node);
            for (std::size_t j = 0; j < config.dim; ++j) dst[j] += src[j];
          }
        }
      }

      // ---- Task #2: masked node type ---------------------------------------
      if (tasks.node_type) {
        std::size_t total = 0;
        for (const SampleState& st : states) total += st.type_nodes.size();
        Matrix gathered(total, config.dim);
        std::vector<int> labels;
        labels.reserve(total);
        std::size_t row = 0;
        for (const SampleState& st : states) {
          for (std::size_t m = 0; m < st.type_nodes.size(); ++m) {
            const float* src = st.masked.node_emb.row(st.type_nodes[m]);
            std::copy(src, src + config.dim, gathered.row(row));
            labels.push_back(st.type_labels[m]);
            ++row;
          }
        }
        const Matrix logits = type_head.forward(gathered);
        const ml::LossGrad lg = ml::softmax_cross_entropy(logits, labels);
        stats.loss_type += lg.loss;
        stats.acc_type += ml::accuracy(logits, labels);
        const Matrix dg = type_head.backward(lg.grad);
        row = 0;
        for (std::size_t b = 0; b < bsz; ++b) {
          for (const std::uint32_t node : states[b].type_nodes) {
            const float* src = dg.row(row++);
            float* dst = d_node_masked[b].row(node);
            for (std::size_t j = 0; j < config.dim; ++j) dst[j] += src[j];
          }
        }
      }

      // ---- Task #3: sub-module size ----------------------------------------
      std::vector<Matrix> d_graph_masked(bsz);
      if (tasks.size) {
        const Matrix pred = size_head.forward(masked_embs);
        const ml::LossGrad lg = ml::mse(pred, size_targets);
        stats.loss_size += lg.loss;
        const Matrix dg = size_head.backward(lg.grad);
        for (std::size_t b = 0; b < bsz; ++b) {
          d_graph_masked[b] = Matrix(1, config.dim);
          std::copy(dg.row(b), dg.row(b) + config.dim, d_graph_masked[b].row(0));
        }
      }

      // ---- Tasks #4, #5: contrastive ---------------------------------------
      Matrix d_anchor(bsz, config.dim);
      Matrix d_plus, d_post;
      if (tasks.cl_gate) {
        const ml::InfoNceGrad cl = ml::info_nce(anchors, pos_plus, config.temperature);
        stats.loss_cl_gate += cl.loss;
        d_anchor += cl.grad_anchor;
        d_plus = cl.grad_positive;
      }
      if (tasks.cl_cross) {
        const ml::InfoNceGrad cl = ml::info_nce(anchors, pos_post, config.temperature);
        stats.loss_cl_cross += cl.loss;
        stats.acc_cl_cross += cl.accuracy;
        d_anchor += cl.grad_anchor;
        d_post = cl.grad_positive;
      }

      // ---- Backward through the encoder ------------------------------------
      for (std::size_t b = 0; b < bsz; ++b) {
        const SampleState& st = states[b];
        const bool have_node = tasks.toggle || tasks.node_type;
        enc.backward(st.masked,
                     have_node ? d_node_masked[b] : Matrix(),
                     tasks.size ? d_graph_masked[b] : Matrix());
        Matrix da(1, config.dim);
        std::copy(d_anchor.row(b), d_anchor.row(b) + config.dim, da.row(0));
        if (tasks.cl_gate || tasks.cl_cross) {
          enc.backward(st.gate, Matrix(), da);
        }
        if (tasks.cl_gate) {
          Matrix dp(1, config.dim);
          std::copy(d_plus.row(b), d_plus.row(b) + config.dim, dp.row(0));
          enc.backward(st.plus, Matrix(), dp);
        }
        if (tasks.cl_cross) {
          Matrix dq(1, config.dim);
          std::copy(d_post.row(b), d_post.row(b) + config.dim, dq.row(0));
          enc.backward(st.post, Matrix(), dq);
        }
      }
      adam.step();
      ++batches;
    }

    if (batches > 0) {
      const double inv = 1.0 / batches;
      stats.loss_toggle *= inv;
      stats.loss_type *= inv;
      stats.loss_size *= inv;
      stats.loss_cl_gate *= inv;
      stats.loss_cl_cross *= inv;
      stats.acc_toggle *= inv;
      stats.acc_type *= inv;
      stats.acc_cl_cross *= inv;
    }
    result.report.epochs.push_back(stats);
  }
  return result;
}

}  // namespace atlas::core
