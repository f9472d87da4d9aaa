#include "ml/sgformer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/parallel.h"
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

// A_norm x. A_norm is symmetric, so this is also the transposed product.
Matrix propagate(const SgFormer::Cache& c, const Matrix& x) {
  Matrix y(x.rows(), x.cols());
  raw::propagate(c.norm_edges.data(), c.norm_weights.data(), c.norm_edges.size(),
                 x.data(), x.cols(), y.data());
  return y;
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
  gw_in_ = Matrix(config_.in_dim, d);
  gb_in_ = Matrix(1, d);
  gwq_ = Matrix(d, d);
  gwk_ = Matrix(d, d);
  gwv_ = Matrix(d, d);
  gwg_ = Matrix(d, d);
  gw_out_ = Matrix(d, d);
  gb_out_ = Matrix(1, d);
}

SgFormer::Output SgFormer::forward(const GraphView& g, Cache* cache) const {
  forward_counter().inc();
  if (g.num_nodes == 0) throw std::invalid_argument("SgFormer: empty graph");
  if (g.feat_dim != config_.in_dim) {
    throw std::invalid_argument("SgFormer: feature dim mismatch");
  }
  Cache local;
  Cache& c = cache ? *cache : local;
  c.n = g.num_nodes;

  // Features into a matrix.
  c.x = Matrix(g.num_nodes, g.feat_dim);
  std::copy(g.features, g.features + g.num_nodes * g.feat_dim, c.x.data());

  // Normalized adjacency (undirected + self loops).
  {
    NormAdjacency adj = build_norm_adjacency(g.num_nodes, g.edges);
    c.norm_edges = std::move(adj.edges);
    c.norm_weights = std::move(adj.weights);
  }

  // Input projection.
  c.h = matmul(c.x, w_in_);
  add_row_bias(c.h, b_in_);
  c.mask_in = relu_inplace(c.h);

  // Global linear attention.
  c.q = matmul(c.h, wq_);
  c.k = matmul(c.h, wk_);
  c.v = matmul(c.h, wv_);
  c.ktv = matmul_tn(c.k, c.v);  // d x d
  c.att = matmul(c.q, c.ktv);
  const float inv_n = 1.0f / static_cast<float>(c.n);
  c.att *= 0.5f * inv_n;
  // att = 0.5*(V + Q K^T V / N): add the skip half.
  {
    Matrix half_v = c.v;
    half_v *= 0.5f;
    c.att += half_v;
  }

  // Graph convolution branch.
  c.ah = propagate(c, c.h);
  Matrix gcn = matmul(c.ah, wg_);

  // Combine, nonlinearity, output projection.
  c.combined = gcn;
  c.combined *= (1.0f - config_.alpha);
  {
    Matrix att_scaled = c.att;
    att_scaled *= config_.alpha;
    c.combined += att_scaled;
  }
  c.mask_mid = relu_inplace(c.combined);
  c.node_emb = matmul(c.combined, w_out_);
  add_row_bias(c.node_emb, b_out_);

  Output out;
  out.node_emb = c.node_emb;
  out.graph_emb = mean_rows(c.node_emb);
  return out;
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

void SgFormer::forward_fused(const Segment* segs, std::size_t num_segs,
                             const float* features, float* graph_emb,
                             util::Arena& arena) const {
  if (num_segs == 0) return;
  const std::size_t d = config_.dim;
  const std::size_t in_dim = config_.in_dim;
  std::size_t* off = arena.alloc_array<std::size_t>(num_segs + 1);
  off[0] = 0;
  for (std::size_t s = 0; s < num_segs; ++s) {
    if (segs[s].num_nodes == 0 || segs[s].adj == nullptr) {
      throw std::invalid_argument("forward_fused: empty segment");
    }
    off[s + 1] = off[s] + segs[s].num_nodes;
  }
  const std::size_t total = off[num_segs];
  forward_counter().inc(num_segs);

  // All scratch up front, on the calling thread (Arena is single-threaded;
  // worker lambdas below only touch disjoint row ranges of these buffers).
  float* h = arena.alloc_array<float>(total * d);
  float* q = arena.alloc_array<float>(total * d);
  float* k = arena.alloc_array<float>(total * d);
  float* v = arena.alloc_array<float>(total * d);
  float* att = arena.alloc_array<float>(total * d);
  float* ah = arena.alloc_array<float>(total * d);
  float* gcn = arena.alloc_array<float>(total * d);
  float* emb = arena.alloc_array<float>(total * d);
  float* ktv = arena.alloc_array<float>(num_segs * d * d);
  std::fill(ktv, ktv + num_segs * d * d, 0.0f);

  // GEMM accumulators must start at zero, matching matmul()'s zero-init.
  const std::size_t grain = 64;  // rows per chunk for whole-batch GEMMs
  util::parallel_for_chunks(total, grain, [&](std::size_t r0, std::size_t r1) {
    const std::size_t n = (r1 - r0) * d;
    for (float* buf : {h, q, k, v, att, ah, gcn, emb}) {
      std::fill(buf + r0 * d, buf + r0 * d + n, 0.0f);
    }
    // H = ReLU(X W_in + b_in), one fused row-chunk pass.
    raw::gemm_rows(features, in_dim, w_in_.data(), d, h, r0, r1);
    raw::add_row_bias_rows(h, d, b_in_.data(), r0, r1);
    raw::relu(h + r0 * d, n);
  });

  // Q/K/V projections over the whole concatenated batch.
  util::parallel_for_chunks(total, grain, [&](std::size_t r0, std::size_t r1) {
    raw::gemm_rows(h, d, wq_.data(), d, q, r0, r1);
    raw::gemm_rows(h, d, wk_.data(), d, k, r0, r1);
    raw::gemm_rows(h, d, wv_.data(), d, v, r0, r1);
  });

  // Per-segment reductions: K^T V, attention normalization + skip, and
  // A_norm propagation — each in forward()'s exact serial order.
  util::parallel_for(num_segs, 1, [&](std::size_t s) {
    const std::size_t r0 = off[s];
    const std::size_t n = segs[s].num_nodes;
    float* kt = ktv + s * d * d;
    raw::gemm_tn(k + r0 * d, d, v + r0 * d, d, n, kt);
    raw::gemm_rows(q, d, kt, d, att, r0, r0 + n);
    const float inv_n = 1.0f / static_cast<float>(n);
    const float att_scale = 0.5f * inv_n;
    float* ar = att + r0 * d;
    const float* vr = v + r0 * d;
    for (std::size_t i = 0; i < n * d; ++i) ar[i] *= att_scale;
    for (std::size_t i = 0; i < n * d; ++i) {
      const float hv = vr[i] * 0.5f;
      ar[i] += hv;
    }
    const NormAdjacency& adj = *segs[s].adj;
    raw::propagate(adj.edges.data(), adj.weights.data(), adj.edges.size(),
                   h + r0 * d, d, ah + r0 * d);
  });

  // GCN projection, branch combine, ReLU, output projection — all row-local,
  // so one fused row-chunk pass over the whole batch.
  const float alpha = config_.alpha;
  const float beta = 1.0f - config_.alpha;
  util::parallel_for_chunks(total, grain, [&](std::size_t r0, std::size_t r1) {
    raw::gemm_rows(ah, d, wg_.data(), d, gcn, r0, r1);
    for (std::size_t i = r0 * d; i < r1 * d; ++i) {
      float cv = gcn[i] * beta;
      const float as = att[i] * alpha;
      cv += as;
      gcn[i] = cv;
    }
    raw::relu(gcn + r0 * d, (r1 - r0) * d);
    raw::gemm_rows(gcn, d, w_out_.data(), d, emb, r0, r1);
    raw::add_row_bias_rows(emb, d, b_out_.data(), r0, r1);
  });

  // Per-segment mean pool into the caller's output rows.
  util::parallel_for(num_segs, 1, [&](std::size_t s) {
    raw::mean_rows(emb + off[s] * d, segs[s].num_nodes, d, graph_emb + s * d);
  });
}

void SgFormer::backward(const Cache& c, const Matrix& d_node,
                        const Matrix& d_graph) {
  backward_counter().inc();
  const std::size_t n = c.n;
  const std::size_t d = config_.dim;
  Matrix de(n, d);
  if (!d_node.empty()) {
    if (d_node.rows() != n || d_node.cols() != d) {
      throw std::invalid_argument("SgFormer::backward: d_node shape mismatch");
    }
    de += d_node;
  }
  if (!d_graph.empty()) {
    if (d_graph.rows() != 1 || d_graph.cols() != d) {
      throw std::invalid_argument("SgFormer::backward: d_graph shape mismatch");
    }
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      float* r = de.row(i);
      for (std::size_t j = 0; j < d; ++j) r[j] += d_graph.at(0, j) * inv_n;
    }
  }

  // Output projection.
  gw_out_ += matmul_tn(c.combined, de);
  for (std::size_t i = 0; i < n; ++i) {
    const float* r = de.row(i);
    for (std::size_t j = 0; j < d; ++j) gb_out_.at(0, j) += r[j];
  }
  Matrix dc = matmul_nt(de, w_out_);
  relu_backward_inplace(dc, c.mask_mid);

  // Split into attention / gcn branches.
  Matrix datt = dc;
  datt *= config_.alpha;
  Matrix dgcn = dc;
  dgcn *= (1.0f - config_.alpha);

  Matrix dh(n, d);  // accumulates gradient w.r.t. post-ReLU H

  // GCN branch: gcn = (A H) Wg.
  gwg_ += matmul_tn(c.ah, dgcn);
  {
    const Matrix dah = matmul_nt(dgcn, wg_);
    dh += propagate(c, dah);  // A symmetric: A^T = A
  }

  // Attention branch: att = 0.5 V + 0.5/N * Q (K^T V).
  const float half_inv_n = 0.5f / static_cast<float>(n);
  {
    // dV from the skip term.
    Matrix dv = datt;
    dv *= 0.5f;
    // dQ = s * datt (K^T V)^T ; dKtV = s * Q^T datt.
    Matrix dq = matmul_nt(datt, c.ktv);
    dq *= half_inv_n;
    Matrix dktv = matmul_tn(c.q, datt);
    dktv *= half_inv_n;
    // KtV = K^T V: dK = V dKtV^T ; dV += K dKtV.
    {
      // dK = V * dktv^T  -> use matmul_nt(V, dktv).
      const Matrix dk = matmul_nt(c.v, dktv);
      gwk_ += matmul_tn(c.h, dk);
      dh += matmul_nt(dk, wk_);
    }
    {
      Matrix dv2 = matmul(c.k, dktv);
      dv += dv2;
    }
    gwq_ += matmul_tn(c.h, dq);
    dh += matmul_nt(dq, wq_);
    gwv_ += matmul_tn(c.h, dv);
    dh += matmul_nt(dv, wv_);
  }

  // Input projection.
  relu_backward_inplace(dh, c.mask_in);
  gw_in_ += matmul_tn(c.x, dh);
  for (std::size_t i = 0; i < n; ++i) {
    const float* r = dh.row(i);
    for (std::size_t j = 0; j < d; ++j) gb_in_.at(0, j) += r[j];
  }
}

void SgFormer::zero_grad() {
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

void SgFormer::save(std::ostream& os) const {
  util::write_header(os, "SGFM", 1);
  util::write_u64(os, config_.in_dim);
  util::write_u64(os, config_.dim);
  util::write_f64(os, config_.alpha);
  util::write_u64(os, config_.seed);
  for (const Matrix* m : {&w_in_, &b_in_, &wq_, &wk_, &wv_, &wg_, &w_out_, &b_out_}) {
    write_matrix(os, *m);
  }
}

SgFormer SgFormer::load(std::istream& is) {
  util::read_header(is, "SGFM");
  Config cfg;
  cfg.in_dim = util::read_u64(is);
  cfg.dim = util::read_u64(is);
  cfg.alpha = static_cast<float>(util::read_f64(is));
  cfg.seed = util::read_u64(is);
  SgFormer m(cfg);
  for (Matrix* w : {&m.w_in_, &m.b_in_, &m.wq_, &m.wk_, &m.wv_, &m.wg_,
                    &m.w_out_, &m.b_out_}) {
    *w = read_matrix(is);
  }
  return m;
}

}  // namespace atlas::ml
