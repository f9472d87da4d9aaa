// SGFormer-style graph transformer encoder (paper Sec. IV, ref [13]).
//
// Architecture, following SGFormer's "simple global attention" design:
//
//   H   = ReLU(X W_in + b_in)                      input projection
//   att = 0.5 * (V + Q (K^T V) / N)                single-layer global linear
//         with Q = H Wq, K = H Wk, V = H Wv        attention, O(N d^2)
//   gcn = A_norm H Wg                              one-hop graph convolution,
//         A_norm = D^-1/2 (A + A^T + I) D^-1/2     symmetric-normalized
//   E   = ReLU(alpha*att + (1-alpha)*gcn) W_out + b_out   node embeddings
//   g   = mean over nodes of E                     graph embedding
//
// No positional encodings, no preprocessing — matching the properties the
// paper cites for choosing SGFormer. Backprop is hand-derived; gradients
// accumulate in the encoder so multiple graphs can contribute to one step
// (required by the contrastive tasks, whose loss couples whole batches of
// graphs).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ml/mlp.h"
#include "util/arena.h"

namespace atlas::ml {

/// Read-only view of one graph: node features plus directed edges.
struct GraphView {
  std::size_t num_nodes = 0;
  std::size_t feat_dim = 0;
  const float* features = nullptr;  // row-major num_nodes x feat_dim
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>* edges = nullptr;
};

class SgFormer {
 public:
  struct Config {
    std::size_t in_dim = 0;
    std::size_t dim = 32;     // hidden = embedding dimension
    float alpha = 0.5f;       // attention/GCN mixing weight
    std::uint64_t seed = 1;
  };

  explicit SgFormer(const Config& config);

  /// Forward intermediates for one graph, kept for backward.
  struct Cache {
    Matrix x, h, q, k, v, ktv, att, ah, combined, node_emb;
    std::vector<bool> mask_in, mask_mid;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> norm_edges;  // incl. loops
    std::vector<float> norm_weights;
    std::size_t n = 0;
  };

  struct Output {
    Matrix node_emb;   // N x dim
    Matrix graph_emb;  // 1 x dim
  };

  /// Encode one graph. Pass a Cache to enable a later backward() call.
  Output forward(const GraphView& g, Cache* cache = nullptr) const;

  /// Symmetric-normalized adjacency of one graph in edge-list form, exactly
  /// as forward() constructs it internally. Cycle- and feature-invariant, so
  /// one instance is reused across every cycle of a graph and across every
  /// request touching that graph.
  struct NormAdjacency {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // incl. loops
    std::vector<float> weights;
  };
  static NormAdjacency build_norm_adjacency(
      std::size_t num_nodes,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>* edges);

  /// One (graph, cycle) instance inside a fused batch: a row block of
  /// `num_nodes` feature rows plus the graph's prebuilt adjacency.
  struct Segment {
    std::size_t num_nodes = 0;
    const NormAdjacency* adj = nullptr;
  };

  /// Inference-only fused forward over a batch of segments whose features
  /// are packed row-major into `features` (sum of num_nodes x in_dim).
  /// Writes segment s's 1 x dim graph embedding to graph_emb + s * dim.
  ///
  /// The per-node projections run as one GEMM per layer over the whole
  /// concatenated row block (parallelized over row chunks); attention
  /// normalization, adjacency propagation, and the mean pool stay
  /// per-segment. Every output row of the shared GEMM kernel depends only
  /// on its own input row, and all per-segment reductions (K^T V, A_norm
  /// propagation, mean pool) run in the same serial order as forward(), so
  /// the result is bit-identical to calling forward() once per segment —
  /// at any thread count and any batch composition. Scratch comes from
  /// `arena` (no heap traffic when the arena is recycled).
  void forward_fused(const Segment* segs, std::size_t num_segs,
                     const float* features, float* graph_emb,
                     util::Arena& arena) const;

  /// Accumulate parameter gradients for one graph. `d_node` may be empty
  /// (zero); `d_graph` may be empty (zero).
  void backward(const Cache& cache, const Matrix& d_node, const Matrix& d_graph);

  void zero_grad();
  void collect_params(std::vector<ParamRef>& out);

  std::size_t dim() const { return config_.dim; }
  std::size_t in_dim() const { return config_.in_dim; }

  void save(std::ostream& os) const;
  static SgFormer load(std::istream& is);

 private:
  Config config_;
  Matrix w_in_, b_in_, wq_, wk_, wv_, wg_, w_out_, b_out_;
  Matrix gw_in_, gb_in_, gwq_, gwk_, gwv_, gwg_, gw_out_, gb_out_;
};

}  // namespace atlas::ml
