#include "ml/sgformer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/serialize.h"

namespace atlas::ml {

namespace {
// forward/backward are called once per graph per cycle — far too hot for
// spans, so they only bump relaxed counters through cached references.
obs::Counter& forward_counter() {
  static obs::Counter* c =
      &obs::Registry::global().counter("atlas_ml_sgformer_forward_total");
  return *c;
}
obs::Counter& backward_counter() {
  static obs::Counter* c =
      &obs::Registry::global().counter("atlas_ml_sgformer_backward_total");
  return *c;
}
}  // namespace

SgFormer::SgFormer(const Config& config) : config_(config) {
  if (config_.in_dim == 0 || config_.dim == 0) {
    throw std::invalid_argument("SgFormer: dims must be positive");
  }
  util::Rng rng(config_.seed);
  const std::size_t d = config_.dim;
  w_in_ = Matrix::xavier(config_.in_dim, d, rng);
  b_in_ = Matrix(1, d);
  wq_ = Matrix::xavier(d, d, rng);
  wk_ = Matrix::xavier(d, d, rng);
  wv_ = Matrix::xavier(d, d, rng);
  wg_ = Matrix::xavier(d, d, rng);
  w_out_ = Matrix::xavier(d, d, rng);
  b_out_ = Matrix(1, d);
  ensure_grads();
}

SgFormer::SgFormer(const Config& config, Matrix (&weights)[kNumParams])
    : config_(config) {
  Matrix* dst[] = {&w_in_, &b_in_, &wq_, &wk_, &wv_, &wg_, &w_out_, &b_out_};
  for (std::size_t i = 0; i < kNumParams; ++i) *dst[i] = std::move(weights[i]);
}

void SgFormer::ensure_grads() {
  if (!gw_in_.empty()) return;
  const std::size_t d = config_.dim;
  gw_in_ = Matrix(config_.in_dim, d);
  gb_in_ = Matrix(1, d);
  gwq_ = Matrix(d, d);
  gwk_ = Matrix(d, d);
  gwv_ = Matrix(d, d);
  gwg_ = Matrix(d, d);
  gw_out_ = Matrix(d, d);
  gb_out_ = Matrix(1, d);
}

SgFormer::NormAdjacency SgFormer::build_norm_adjacency(
    std::size_t num_nodes,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>* edges) {
  NormAdjacency adj;
  std::vector<float> degree(num_nodes, 1.0f);  // self loop
  if (edges != nullptr) {
    for (const auto& [s, d] : *edges) {
      degree[s] += 1.0f;
      degree[d] += 1.0f;
    }
  }
  const std::size_t n_edges = edges ? edges->size() : 0;
  adj.edges.reserve(2 * n_edges + num_nodes);
  adj.weights.reserve(2 * n_edges + num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    adj.edges.emplace_back(i, i);
    adj.weights.push_back(1.0f / degree[i]);
  }
  if (edges != nullptr) {
    for (const auto& [s, d] : *edges) {
      const float w = 1.0f / std::sqrt(degree[s] * degree[d]);
      adj.edges.emplace_back(d, s);
      adj.weights.push_back(w);
      adj.edges.emplace_back(s, d);
      adj.weights.push_back(w);
    }
  }
  return adj;
}

void SgFormer::forward_segment(std::size_t n, const NormAdjacency& adj,
                               const float* features, float* scratch,
                               float* graph_emb) const {
  if (n == 0) throw std::invalid_argument("forward_segment: empty graph");
  const std::size_t nd = n * config_.dim;
  // Four n x d buffers, each reused once its value is dead, plus the d x d
  // K^T V tile: att overwrites K (dead once K^T V is formed), A H overwrites
  // Q (dead once att is formed), the mix overwrites V (dead once the skip
  // half is added) and the node embeddings overwrite H (dead once A H is
  // formed).
  float* h = scratch;
  float* q = h + nd;
  float* k = q + nd;
  float* v = k + nd;
  float* ktv = v + nd;
  forward_body(n, adj, features, Buffers{h, q, k, v, ktv, k, q, v, h},
               graph_emb);
}

void SgFormer::forward_train(const NormAdjacency& adj, Activations& act,
                             float* graph_emb) const {
  const std::size_t n = act.x.rows();
  if (n == 0) throw std::invalid_argument("forward_train: empty graph");
  if (act.x.cols() != config_.in_dim) {
    throw std::invalid_argument("forward_train: feature dim mismatch");
  }
  const std::size_t d = config_.dim;
  for (Matrix* m : {&act.h, &act.q, &act.k, &act.v, &act.ah, &act.combined,
                    &act.node_emb}) {
    m->resize(n, d);
  }
  act.ktv.resize(d, d);
  act.n = n;
  act.adj = &adj;
  // att lives in node_emb: the mix reads it before emb is zeroed.
  forward_body(n, adj, act.x.data(),
               Buffers{act.h.data(), act.q.data(), act.k.data(), act.v.data(),
                       act.ktv.data(), act.node_emb.data(), act.ah.data(),
                       act.combined.data(), act.node_emb.data()},
               graph_emb);
}

void SgFormer::forward_body(std::size_t n, const NormAdjacency& adj,
                            const float* features, const Buffers& buf,
                            float* graph_emb) const {
  forward_counter().inc();
  const std::size_t d = config_.dim;
  const std::size_t nd = n * d;
  // GEMM and propagate outputs accumulate, so each is zeroed right before
  // it is written.
  const auto [h, q, k, v, ktv, att, ah, gcn, emb] = buf;

  // H = ReLU(X W_in + b_in).
  std::fill(h, h + nd, 0.0f);
  raw::gemm_rows(features, config_.in_dim, w_in_.data(), d, h, 0, n);
  raw::add_row_bias_rows(h, d, b_in_.data(), 0, n);
  raw::relu(h, nd);

  // Global linear attention: att = 0.5 * (V + Q (K^T V) / n).
  for (float* p : {q, k, v}) std::fill(p, p + nd, 0.0f);
  raw::gemm_rows(h, d, wq_.data(), d, q, 0, n);
  raw::gemm_rows(h, d, wk_.data(), d, k, 0, n);
  raw::gemm_rows(h, d, wv_.data(), d, v, 0, n);
  std::fill(ktv, ktv + d * d, 0.0f);
  raw::gemm_tn(k, d, v, d, n, ktv);
  std::fill(att, att + nd, 0.0f);
  raw::gemm_rows(q, d, ktv, d, att, 0, n);
  const float inv_n = 1.0f / static_cast<float>(n);
  const float att_scale = 0.5f * inv_n;
  for (std::size_t i = 0; i < nd; ++i) att[i] *= att_scale;
  for (std::size_t i = 0; i < nd; ++i) {
    const float hv = v[i] * 0.5f;
    att[i] += hv;
  }

  // Graph convolution branch: gcn = (A_norm H) W_g.
  std::fill(ah, ah + nd, 0.0f);
  raw::propagate(adj.edges.data(), adj.weights.data(), adj.edges.size(), h, d,
                 ah);
  std::fill(gcn, gcn + nd, 0.0f);
  raw::gemm_rows(ah, d, wg_.data(), d, gcn, 0, n);

  // Combine, nonlinearity, output projection, mean pool.
  const float alpha = config_.alpha;
  const float beta = 1.0f - config_.alpha;
  for (std::size_t i = 0; i < nd; ++i) {
    float cv = gcn[i] * beta;
    const float as = att[i] * alpha;
    cv += as;
    gcn[i] = cv;
  }
  raw::relu(gcn, nd);
  std::fill(emb, emb + nd, 0.0f);
  raw::gemm_rows(gcn, d, w_out_.data(), d, emb, 0, n);
  raw::add_row_bias_rows(emb, d, b_out_.data(), 0, n);
  raw::mean_rows(emb, n, d, graph_emb);
}

void SgFormer::backward(const Activations& act, std::span<const float> d_node,
                        std::span<const float> d_graph) {
  backward_counter().inc();
  if (act.adj == nullptr) {
    throw std::invalid_argument("SgFormer::backward: no forward_train ran");
  }
  ensure_grads();
  const std::size_t n = act.n;
  const std::size_t d = config_.dim;
  if (!d_node.empty() && d_node.size() != n * d) {
    throw std::invalid_argument("SgFormer::backward: d_node shape mismatch");
  }
  if (!d_graph.empty() && d_graph.size() != d) {
    throw std::invalid_argument("SgFormer::backward: d_graph shape mismatch");
  }
  Matrix de(n, d);
  float* e = de.data();
  for (std::size_t i = 0; i < d_node.size(); ++i) e[i] += d_node[i];
  if (!d_graph.empty()) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      float* r = de.row(i);
      for (std::size_t j = 0; j < d; ++j) r[j] += d_graph[j] * inv_n;
    }
  }

  // Output projection.
  gw_out_ += matmul_tn(act.combined, de);
  for (std::size_t i = 0; i < n; ++i) {
    const float* r = de.row(i);
    for (std::size_t j = 0; j < d; ++j) gb_out_.at(0, j) += r[j];
  }
  Matrix dc = matmul_nt(de, w_out_);
  relu_backward(dc, act.combined);

  // Split into attention / gcn branches.
  Matrix datt = dc;
  datt *= config_.alpha;
  Matrix dgcn = dc;
  dgcn *= (1.0f - config_.alpha);

  Matrix dh(n, d);  // accumulates gradient w.r.t. post-ReLU H

  // GCN branch: gcn = (A H) Wg.
  gwg_ += matmul_tn(act.ah, dgcn);
  {
    const Matrix dah = matmul_nt(dgcn, wg_);
    Matrix adah(n, d);  // A symmetric: A^T = A
    raw::propagate(act.adj->edges.data(), act.adj->weights.data(),
                   act.adj->edges.size(), dah.data(), d, adah.data());
    dh += adah;
  }

  // Attention branch: att = 0.5 V + 0.5/N * Q (K^T V).
  const float half_inv_n = 0.5f / static_cast<float>(n);
  {
    // dV from the skip term.
    Matrix dv = datt;
    dv *= 0.5f;
    // dQ = s * datt (K^T V)^T ; dKtV = s * Q^T datt.
    Matrix dq = matmul_nt(datt, act.ktv);
    dq *= half_inv_n;
    Matrix dktv = matmul_tn(act.q, datt);
    dktv *= half_inv_n;
    // KtV = K^T V: dK = V dKtV^T ; dV += K dKtV.
    {
      // dK = V * dktv^T  -> use matmul_nt(V, dktv).
      const Matrix dk = matmul_nt(act.v, dktv);
      gwk_ += matmul_tn(act.h, dk);
      dh += matmul_nt(dk, wk_);
    }
    {
      Matrix dv2 = matmul(act.k, dktv);
      dv += dv2;
    }
    gwq_ += matmul_tn(act.h, dq);
    dh += matmul_nt(dq, wq_);
    gwv_ += matmul_tn(act.h, dv);
    dh += matmul_nt(dv, wv_);
  }

  // Input projection.
  relu_backward(dh, act.h);
  gw_in_ += matmul_tn(act.x, dh);
  for (std::size_t i = 0; i < n; ++i) {
    const float* r = dh.row(i);
    for (std::size_t j = 0; j < d; ++j) gb_in_.at(0, j) += r[j];
  }
}

void SgFormer::zero_grad() {
  ensure_grads();
  gw_in_.fill(0.0f);
  gb_in_.fill(0.0f);
  gwq_.fill(0.0f);
  gwk_.fill(0.0f);
  gwv_.fill(0.0f);
  gwg_.fill(0.0f);
  gw_out_.fill(0.0f);
  gb_out_.fill(0.0f);
}

void SgFormer::collect_params(std::vector<ParamRef>& out) {
  ensure_grads();
  auto add = [&](Matrix& w, Matrix& g) {
    out.push_back(ParamRef{w.data(), g.data(), w.size()});
  };
  add(w_in_, gw_in_);
  add(b_in_, gb_in_);
  add(wq_, gwq_);
  add(wk_, gwk_);
  add(wv_, gwv_);
  add(wg_, gwg_);
  add(w_out_, gw_out_);
  add(b_out_, gb_out_);
}

void SgFormer::save(util::ByteWriter& out) const {
  out.header("SGFM", 1);
  out.u64(config_.in_dim);
  out.u64(config_.dim);
  out.f64(config_.alpha);
  out.u64(config_.seed);
  for (const Matrix* m : {&w_in_, &b_in_, &wq_, &wk_, &wv_, &wg_, &w_out_, &b_out_}) {
    write_matrix(out, *m);
  }
}

SgFormer SgFormer::load(util::ByteReader& in) {
  in.header("SGFM");
  Config cfg;
  cfg.in_dim = in.u64();
  cfg.dim = in.u64();
  cfg.alpha = static_cast<float>(in.f64());
  cfg.seed = in.u64();
  if (cfg.in_dim == 0 || cfg.dim == 0) {
    throw util::SerializeError("sgformer: zero dimension");
  }
  const std::size_t d = cfg.dim;
  const std::pair<std::size_t, std::size_t> shapes[kNumParams] = {
      {cfg.in_dim, d}, {1, d}, {d, d}, {d, d}, {d, d}, {d, d}, {d, d}, {1, d}};
  Matrix w[kNumParams];
  for (std::size_t i = 0; i < kNumParams; ++i) {
    w[i] = read_matrix(in);
    if (w[i].rows() != shapes[i].first || w[i].cols() != shapes[i].second) {
      throw util::SerializeError("sgformer: weight " + std::to_string(i) +
                                 " does not have the config's shape");
    }
  }
  return SgFormer(cfg, w);
}

}  // namespace atlas::ml
