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
//
// One forward body computes all of the above. Serving runs it through
// forward_segment(), which overlays the intermediates in a small caller
// scratch; pre-training runs it through forward_train(), which keeps every
// intermediate backward() reads in a caller-owned Activations. The two share
// every kernel call and op, so their graph embeddings are bit-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/mlp.h"

namespace atlas::ml {

class SgFormer {
 public:
  struct Config {
    std::size_t in_dim = 0;
    std::size_t dim = 32;     // hidden = embedding dimension
    float alpha = 0.5f;       // attention/GCN mixing weight
    std::uint64_t seed = 1;
  };

  /// Training constructor: Xavier-initialized weights drawn from
  /// `config.seed`, plus gradient storage.
  explicit SgFormer(const Config& config);

  /// Symmetric-normalized adjacency of one graph in edge-list form (self
  /// loops first, then both directions of every edge). Cycle- and
  /// feature-invariant, so one instance is reused across every cycle of a
  /// graph, every training epoch and every request touching that graph.
  struct NormAdjacency {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // incl. loops
    std::vector<float> weights;
  };
  static NormAdjacency build_norm_adjacency(
      std::size_t num_nodes,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>* edges);

  /// Floats of caller scratch forward_segment() needs for an n-node graph.
  std::size_t segment_scratch_floats(std::size_t n) const {
    return 4 * n * config_.dim + config_.dim * config_.dim;
  }

  /// Inference-only forward of one graph (one (sub-module, cycle) segment):
  /// `features` holds n x in_dim rows, `adj` is the graph's prebuilt
  /// build_norm_adjacency(), and the 1 x dim graph embedding is written to
  /// `graph_emb`. Every intermediate, K^T V included, lives in `scratch`
  /// (segment_scratch_floats(n) floats, contents ignored), each buffer
  /// reused once its value is dead, so a caller that recycles its scratch
  /// encodes without heap traffic. Bit-identical to forward_train()'s graph
  /// embedding. Serial and touching only its arguments: callers parallelize
  /// across segments.
  void forward_segment(std::size_t n, const NormAdjacency& adj,
                       const float* features, float* scratch,
                       float* graph_emb) const;

  /// The intermediates of one training forward, kept for backward(): the
  /// caller sizes and fills `x` (n x in_dim features); forward_train()
  /// sizes the rest (post-ReLU H, Q, K, V, the d x d K^T V, A_norm H, the
  /// post-ReLU mix and E), reusing their storage, and records n and the
  /// adjacency, which must outlive the backward() call.
  struct Activations {
    Matrix x, h, q, k, v, ktv, ah, combined, node_emb;
    std::size_t n = 0;
    const NormAdjacency* adj = nullptr;
  };

  /// Training forward of the graph whose features are `act.x` and whose
  /// prebuilt adjacency is `adj`: fills `act` and writes the 1 x dim graph
  /// embedding (the mean of act.node_emb) to `graph_emb`. Throws
  /// std::invalid_argument on an empty graph or a feature width other than
  /// in_dim.
  void forward_train(const NormAdjacency& adj, Activations& act,
                     float* graph_emb) const;

  /// Accumulate parameter gradients for the graph `act` holds, given the
  /// loss gradient w.r.t. its node embeddings (`d_node`, n x dim row-major)
  /// and its graph embedding (`d_graph`, dim floats). Both are read in
  /// place, so a caller passes rows of the matrices it already holds. An
  /// empty span means zero; any other size throws std::invalid_argument.
  void backward(const Activations& act, std::span<const float> d_node,
                std::span<const float> d_graph);

  /// The training entry points. The first of these (or backward) on a
  /// loaded encoder sizes its gradient storage; it is never reallocated
  /// after that, so the ParamRefs an optimizer holds stay valid.
  void zero_grad();
  void collect_params(std::vector<ParamRef>& out);

  std::size_t dim() const { return config_.dim; }
  std::size_t in_dim() const { return config_.in_dim; }

  void save(util::ByteWriter& out) const;
  /// Throws util::SerializeError on a truncated input, a zero dimension, or
  /// a weight whose shape is not the one the stored config implies. Every
  /// weight is read and checked before the encoder is built, so a forged
  /// config cannot size an allocation past the input. The encoder holds the
  /// weights read and nothing else: no initializer draw, no gradients.
  static SgFormer load(util::ByteReader& in);

 private:
  static constexpr std::size_t kNumParams = 8;

  /// Where the forward body keeps its intermediates (n x dim each, ktv
  /// dim x dim). att and emb may alias buffers that are dead by then.
  struct Buffers {
    float *h, *q, *k, *v, *ktv, *att, *ah, *combined, *emb;
  };
  void forward_body(std::size_t n, const NormAdjacency& adj,
                    const float* features, const Buffers& buf,
                    float* graph_emb) const;

  /// Adopts `weights` (w_in, b_in, wq, wk, wv, wg, w_out, b_out).
  SgFormer(const Config& config, Matrix (&weights)[kNumParams]);
  void ensure_grads();

  Config config_;
  Matrix w_in_, b_in_, wq_, wk_, wv_, wg_, w_out_, b_out_;
  Matrix gw_in_, gb_in_, gwq_, gwk_, gwv_, gwg_, gw_out_, gb_out_;
};

}  // namespace atlas::ml
