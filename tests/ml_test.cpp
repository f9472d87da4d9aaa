#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "ml/adam.h"
#include "ml/gbdt.h"
#include "ml/losses.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/sgformer.h"
#include "util/serialize.h"

namespace atlas::ml {
namespace {

TEST(MatrixTest, BasicOps) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7;
  b.at(1, 0) = 8;
  b.at(2, 0) = 9;
  b.at(0, 1) = 1;
  b.at(1, 1) = 2;
  b.at(2, 1) = 3;
  const Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1 * 7 + 2 * 8 + 3 * 9);
  EXPECT_FLOAT_EQ(c.at(1, 1), 4 * 1 + 5 * 2 + 6 * 3);
}

TEST(MatrixTest, TransposedProductsAgree) {
  util::Rng rng(3);
  const Matrix a = Matrix::randn(4, 5, rng, 1.0f);
  const Matrix b = Matrix::randn(4, 6, rng, 1.0f);
  // a^T b via matmul_tn must equal manual transpose multiply.
  const Matrix tn = matmul_tn(a, b);
  ASSERT_EQ(tn.rows(), 5u);
  ASSERT_EQ(tn.cols(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      float expect = 0;
      for (std::size_t k = 0; k < 4; ++k) expect += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(tn.at(i, j), expect, 1e-4);
    }
  }
  const Matrix c = Matrix::randn(7, 5, rng, 1.0f);
  const Matrix d = Matrix::randn(9, 5, rng, 1.0f);
  const Matrix nt = matmul_nt(c, d);
  ASSERT_EQ(nt.rows(), 7u);
  ASSERT_EQ(nt.cols(), 9u);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      float expect = 0;
      for (std::size_t k = 0; k < 5; ++k) expect += c.at(i, k) * d.at(j, k);
      EXPECT_NEAR(nt.at(i, j), expect, 1e-4);
    }
  }
}

// Scalar references for the raw kernels: the generic loops, kept here so
// the width-specialized bodies (d = 16, 32) are checked against an oracle
// the library cannot change underneath them.
void ref_gemm_rows(const float* a, std::size_t a_cols, const float* b,
                   std::size_t b_cols, float* c, std::size_t rows) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < a_cols; ++k) {
      const float av = a[i * a_cols + k];
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b_cols; ++j) {
        c[i * b_cols + j] += av * b[k * b_cols + j];
      }
    }
  }
}

void ref_gemm_tn(const float* a, std::size_t a_cols, const float* b,
                 std::size_t b_cols, std::size_t n, float* c) {
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < a_cols; ++i) {
      const float av = a[k * a_cols + i];
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < b_cols; ++j) {
        c[i * b_cols + j] += av * b[k * b_cols + j];
      }
    }
  }
}

void ref_propagate(const SgFormer::NormAdjacency& adj, const float* x,
                   std::size_t cols, float* y) {
  for (std::size_t e = 0; e < adj.edges.size(); ++e) {
    const auto [i, j] = adj.edges[e];
    for (std::size_t c = 0; c < cols; ++c) {
      y[i * cols + c] += adj.weights[e] * x[j * cols + c];
    }
  }
}

// `count` directed edges between uniformly drawn nodes (self-loops and
// repeats included).
std::vector<std::pair<std::uint32_t, std::uint32_t>> random_edges(
    std::size_t nodes, std::size_t count, util::Rng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::size_t e = 0; e < count; ++e) {
    edges.emplace_back(static_cast<std::uint32_t>(rng.next_below(nodes)),
                       static_cast<std::uint32_t>(rng.next_below(nodes)));
  }
  return edges;
}

// Gaussian values salted with the IEEE edge cases: signed zeros (both must
// take the zero-skip), subnormals, infinities, NaN and magnitudes near 1e6.
// The NaN is the hardware's default NaN (computed at run time, not folded),
// the same bits inf - inf produces inside the kernels, so which operand's
// payload an add propagates cannot change the bytes compared.
std::vector<float> salted(std::size_t n, util::Rng& rng, double special_rate) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            nan,
                            1.0e6f,
                            -999983.0f};
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.next_bool(special_rate)
            ? specials[rng.next_below(std::size(specials))]
            : static_cast<float>(rng.next_gaussian());
  }
  return v;
}

void expect_same_bytes(const std::vector<float>& got,
                       const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
      << what;
}

TEST(MatrixTest, WidthSpecializedKernelsMatchScalarReferenceBytes) {
  util::Rng rng(2024);
  // 16 and 32 take the fixed-width bodies; 24 is the generic loop.
  for (const std::size_t width : {16u, 32u, 24u}) {
    for (const std::size_t rows : {1u, 2u, 7u, 64u, 65u, 131u}) {
      for (const std::size_t inner : {1u, 5u, 32u}) {
        const std::string what = "width=" + std::to_string(width) +
                                 " rows=" + std::to_string(rows) +
                                 " inner=" + std::to_string(inner);
        // C = A B over (rows x inner) * (inner x width); rows split into
        // chunks the way the fused encoder calls the kernel.
        const std::vector<float> a = salted(rows * inner, rng, 0.3);
        const std::vector<float> b = salted(inner * width, rng, 0.02);
        const std::vector<float> c0 = salted(rows * width, rng, 0.05);
        std::vector<float> want = c0;
        ref_gemm_rows(a.data(), inner, b.data(), width, want.data(), rows);
        for (const std::size_t grain : {1u, 64u}) {
          std::vector<float> got = c0;
          for (std::size_t r0 = 0; r0 < rows; r0 += grain) {
            raw::gemm_rows(a.data(), inner, b.data(), width, got.data(), r0,
                           std::min(rows, r0 + grain));
          }
          expect_same_bytes(got, want,
                            "gemm_rows " + what + " grain=" + std::to_string(grain));
        }

        // C += A^T B over (rows x inner)^T * (rows x width).
        const std::vector<float> bt = salted(rows * width, rng, 0.02);
        const std::vector<float> ct0 = salted(inner * width, rng, 0.05);
        std::vector<float> want_tn = ct0;
        ref_gemm_tn(a.data(), inner, bt.data(), width, rows, want_tn.data());
        std::vector<float> got_tn = ct0;
        raw::gemm_tn(a.data(), inner, bt.data(), width, rows, got_tn.data());
        expect_same_bytes(got_tn, want_tn, "gemm_tn " + what);
      }
    }
  }
}

TEST(MatrixTest, WidthSpecializedPropagateMatchesScalarReferenceBytes) {
  util::Rng rng(77);
  for (const std::size_t width : {16u, 32u, 24u}) {
    for (const std::size_t nodes : {1u, 9u, 70u}) {
      const auto edges = random_edges(nodes, 2 * nodes, rng);
      const SgFormer::NormAdjacency adj =
          SgFormer::build_norm_adjacency(nodes, &edges);
      const std::vector<float> x = salted(nodes * width, rng, 0.1);
      const std::vector<float> y0 = salted(nodes * width, rng, 0.05);
      std::vector<float> want = y0;
      ref_propagate(adj, x.data(), width, want.data());
      std::vector<float> got = y0;
      raw::propagate(adj.edges.data(), adj.weights.data(), adj.edges.size(),
                     x.data(), width, got.data());
      expect_same_bytes(got, want, "propagate width=" + std::to_string(width) +
                                       " nodes=" + std::to_string(nodes));
    }
  }
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  Matrix c(2, 3), d(3, 4);
  EXPECT_THROW(matmul_tn(c, d), std::invalid_argument);
  EXPECT_THROW(matmul_nt(c, d), std::invalid_argument);
  Matrix e(2, 2);
  EXPECT_THROW(c += e, std::invalid_argument);
}

TEST(MatrixTest, ReluAndMask) {
  Matrix x(1, 4);
  x.at(0, 0) = -1;
  x.at(0, 1) = 2;
  x.at(0, 2) = -3;
  x.at(0, 3) = 4;
  raw::relu(x.data(), x.size());
  EXPECT_FLOAT_EQ(x.at(0, 0), 0);
  EXPECT_FLOAT_EQ(x.at(0, 1), 2);
  Matrix g(1, 4, 1.0f);
  relu_backward(g, x);
  EXPECT_FLOAT_EQ(g.at(0, 0), 0);
  EXPECT_FLOAT_EQ(g.at(0, 1), 1);
  EXPECT_FLOAT_EQ(g.at(0, 2), 0);
  EXPECT_FLOAT_EQ(g.at(0, 3), 1);
  // NaN and -0 inputs come out +0, and the backward masks them.
  Matrix odd(1, 2);
  odd.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  odd.at(0, 1) = -0.0f;
  raw::relu(odd.data(), odd.size());
  EXPECT_FALSE(std::signbit(odd.at(0, 0)));
  EXPECT_FALSE(std::signbit(odd.at(0, 1)));
  Matrix odd_grad(1, 2, 1.0f);
  relu_backward(odd_grad, odd);
  EXPECT_EQ(odd_grad.at(0, 0), 0.0f);
  EXPECT_EQ(odd_grad.at(0, 1), 0.0f);
}

TEST(MatrixTest, MeanRowsAndNormalize) {
  Matrix x(2, 2);
  x.at(0, 0) = 3;
  x.at(0, 1) = 4;
  x.at(1, 0) = 1;
  x.at(1, 1) = 0;
  float m[2];
  raw::mean_rows(x.data(), 2, 2, m);
  EXPECT_FLOAT_EQ(m[0], 2);
  EXPECT_FLOAT_EQ(m[1], 2);
  const auto norms = l2_normalize_rows(x);
  EXPECT_NEAR(norms[0], 5.0, 1e-5);
  EXPECT_NEAR(x.at(0, 0), 0.6, 1e-5);
  EXPECT_NEAR(x.at(0, 1), 0.8, 1e-5);
}

TEST(MatrixTest, SerializationRoundTrip) {
  util::Rng rng(5);
  const Matrix m = Matrix::randn(3, 7, rng, 2.0f);
  std::string bytes;
  util::ByteWriter out(bytes);
  write_matrix(out, m);
  util::ByteReader in(bytes);
  const Matrix back = read_matrix(in);
  EXPECT_TRUE(in.done());
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], m.data()[i]);
  }
}

TEST(LossTest, SoftmaxCrossEntropyGradientNumeric) {
  util::Rng rng(11);
  Matrix logits = Matrix::randn(4, 3, rng, 1.0f);
  const std::vector<int> labels = {0, 2, 1, 2};
  const LossGrad lg = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      Matrix lp = logits;
      lp.at(i, j) += eps;
      Matrix lm = logits;
      lm.at(i, j) -= eps;
      const double num = (softmax_cross_entropy(lp, labels).loss -
                          softmax_cross_entropy(lm, labels).loss) /
                         (2 * eps);
      EXPECT_NEAR(lg.grad.at(i, j), num, 5e-3);
    }
  }
}

TEST(LossTest, MseGradient) {
  Matrix pred(3, 1);
  pred.at(0, 0) = 1;
  pred.at(1, 0) = 2;
  pred.at(2, 0) = 3;
  const std::vector<float> target = {1.5f, 2.0f, 0.0f};
  const LossGrad lg = mse(pred, target);
  EXPECT_NEAR(lg.loss, 0.5 * (0.25 + 0 + 9) / 3, 1e-6);
  EXPECT_NEAR(lg.grad.at(0, 0), -0.5 / 3, 1e-6);
  EXPECT_NEAR(lg.grad.at(2, 0), 3.0 / 3, 1e-6);
}

TEST(LossTest, InfoNceGradientNumeric) {
  util::Rng rng(13);
  Matrix a = Matrix::randn(5, 4, rng, 1.0f);
  Matrix p = Matrix::randn(5, 4, rng, 1.0f);
  const InfoNceGrad g = info_nce(a, p, 0.3f);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      Matrix ap = a;
      ap.at(i, j) += eps;
      Matrix am = a;
      am.at(i, j) -= eps;
      const double num =
          (info_nce(ap, p, 0.3f).loss - info_nce(am, p, 0.3f).loss) / (2 * eps);
      EXPECT_NEAR(g.grad_anchor.at(i, j), num, 5e-3) << i << "," << j;
      Matrix pp = p;
      pp.at(i, j) += eps;
      Matrix pm = p;
      pm.at(i, j) -= eps;
      const double nump =
          (info_nce(a, pp, 0.3f).loss - info_nce(a, pm, 0.3f).loss) / (2 * eps);
      EXPECT_NEAR(g.grad_positive.at(i, j), nump, 5e-3) << i << "," << j;
    }
  }
}

TEST(LossTest, InfoNcePerfectAlignmentHasLowLoss) {
  util::Rng rng(17);
  Matrix a = Matrix::randn(8, 16, rng, 1.0f);
  const Matrix p = a;  // positives identical to anchors
  const InfoNceGrad g = info_nce(a, p, 0.05f);
  EXPECT_GT(g.accuracy, 0.9);
  Matrix q = Matrix::randn(8, 16, rng, 1.0f);  // random positives
  const InfoNceGrad bad = info_nce(a, q, 0.05f);
  EXPECT_LT(g.loss, bad.loss);
}

TEST(LossTest, InvalidInputsThrow) {
  Matrix a(1, 4), b(2, 4);
  EXPECT_THROW(info_nce(a, b), std::invalid_argument);
  Matrix c(2, 4), d(2, 4);
  EXPECT_THROW(info_nce(c, d, -1.0f), std::invalid_argument);
  Matrix logits(2, 3);
  EXPECT_THROW(softmax_cross_entropy(logits, {0}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 5}), std::invalid_argument);
  Matrix pred(2, 2);
  EXPECT_THROW(mse(pred, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(MlpTest, GradientNumeric) {
  util::Rng rng(19);
  Mlp mlp({3, 5, 2}, rng);
  const Matrix x = Matrix::randn(4, 3, rng, 1.0f);
  const std::vector<int> labels = {0, 1, 1, 0};

  // Analytic gradient of loss w.r.t. x.
  mlp.zero_grad();
  const Matrix logits = mlp.forward(x);
  const LossGrad lg = softmax_cross_entropy(logits, labels);
  const Matrix dx = mlp.backward(lg.grad);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      Matrix xp = x;
      xp.at(i, j) += eps;
      Matrix xm = x;
      xm.at(i, j) -= eps;
      const double lp = softmax_cross_entropy(mlp.forward(xp), labels).loss;
      const double lm = softmax_cross_entropy(mlp.forward(xm), labels).loss;
      EXPECT_NEAR(dx.at(i, j), (lp - lm) / (2 * eps), 5e-3);
    }
  }
}

TEST(MlpTest, TrainsXor) {
  util::Rng rng(23);
  Mlp mlp({2, 16, 2}, rng);
  std::vector<ParamRef> params;
  mlp.collect_params(params);
  AdamConfig cfg;
  cfg.lr = 0.01f;
  Adam adam(params, cfg);

  Matrix x(4, 2);
  x.at(0, 0) = 0;
  x.at(0, 1) = 0;
  x.at(1, 0) = 0;
  x.at(1, 1) = 1;
  x.at(2, 0) = 1;
  x.at(2, 1) = 0;
  x.at(3, 0) = 1;
  x.at(3, 1) = 1;
  const std::vector<int> labels = {0, 1, 1, 0};
  double last_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    mlp.zero_grad();
    const Matrix logits = mlp.forward(x);
    const LossGrad lg = softmax_cross_entropy(logits, labels);
    mlp.backward(lg.grad);
    adam.step();
    last_loss = lg.loss;
  }
  EXPECT_LT(last_loss, 0.05);
  EXPECT_DOUBLE_EQ(accuracy(mlp.forward(x), labels), 1.0);
}

class SgFormerTest : public ::testing::Test {
 protected:
  SgFormerTest() {
    cfg_.in_dim = 6;
    cfg_.dim = 8;
    cfg_.seed = 31;
    edges_ = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
    adj_ = SgFormer::build_norm_adjacency(4, &edges_);
    util::Rng rng(37);
    feats_ = Matrix::randn(4, 6, rng, 1.0f);
  }

  /// forward_train() of the fixture graph into `act`; returns the graph
  /// embedding.
  std::vector<float> encode(const SgFormer& enc, SgFormer::Activations& act,
                            const SgFormer::NormAdjacency& adj) const {
    act.x = feats_;
    std::vector<float> graph_emb(enc.dim());
    enc.forward_train(adj, act, graph_emb.data());
    return graph_emb;
  }
  std::vector<float> encode(const SgFormer& enc,
                            SgFormer::Activations& act) const {
    return encode(enc, act, adj_);
  }

  SgFormer::Config cfg_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  SgFormer::NormAdjacency adj_;
  Matrix feats_;
};

TEST_F(SgFormerTest, ForwardShapes) {
  SgFormer enc(cfg_);
  SgFormer::Activations act;
  const std::vector<float> graph_emb = encode(enc, act);
  EXPECT_EQ(act.n, 4u);
  EXPECT_EQ(act.node_emb.rows(), 4u);
  EXPECT_EQ(act.node_emb.cols(), 8u);
  EXPECT_EQ(act.ktv.rows(), 8u);
  EXPECT_EQ(act.ktv.cols(), 8u);
  ASSERT_EQ(graph_emb.size(), 8u);
  // Graph embedding is the mean of node embeddings.
  for (std::size_t j = 0; j < 8; ++j) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < 4; ++i) sum += act.node_emb.at(i, j);
    EXPECT_NEAR(graph_emb[j], sum / 4.0f, 1e-5);
  }
}

TEST_F(SgFormerTest, DeterministicForward) {
  SgFormer a(cfg_), b(cfg_);
  SgFormer::Activations oa, ob;
  encode(a, oa);
  encode(b, ob);
  for (std::size_t i = 0; i < oa.node_emb.size(); ++i) {
    EXPECT_FLOAT_EQ(oa.node_emb.data()[i], ob.node_emb.data()[i]);
  }
}

TEST_F(SgFormerTest, EdgesInfluenceEmbeddings) {
  SgFormer enc(cfg_);
  SgFormer::Activations with_edges, without;
  encode(enc, with_edges);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> empty;
  encode(enc, without, SgFormer::build_norm_adjacency(4, &empty));
  double diff = 0;
  for (std::size_t i = 0; i < with_edges.node_emb.size(); ++i) {
    diff += std::abs(with_edges.node_emb.data()[i] - without.node_emb.data()[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

// The gradient checks run at d = 8 (the generic GEMM loops) and at 16 and 32,
// the encoder dims in use, whose matmul_tn calls in backward() take the
// width-specialized gemm_tn bodies.
TEST_F(SgFormerTest, GradientNumericOnWeights) {
  for (const std::size_t dim : {8u, 16u, 32u}) {
    // Loss = sum of graph embedding; check d(loss)/d(params) numerically.
    SgFormer::Config cfg = cfg_;
    cfg.dim = dim;
    SgFormer enc(cfg);
    SgFormer::Activations act;
    encode(enc, act);
    enc.zero_grad();
    const std::vector<float> d_graph(dim, 1.0f);  // dL/d(graph_emb) = 1
    enc.backward(act, {}, d_graph);

    std::vector<ParamRef> params;
    enc.collect_params(params);
    SgFormer::Activations probe;
    auto loss_fn = [&]() {
      double s = 0;
      for (const float g : encode(enc, probe)) s += g;
      return s;
    };
    const float eps = 1e-3f;
    int checked = 0;
    for (const ParamRef& p : params) {
      // Spot-check a few entries per parameter to keep runtime low.
      for (std::size_t k = 0; k < p.size; k += std::max<std::size_t>(1, p.size / 5)) {
        const float orig = p.value[k];
        p.value[k] = orig + eps;
        const double lp = loss_fn();
        p.value[k] = orig - eps;
        const double lm = loss_fn();
        p.value[k] = orig;
        EXPECT_NEAR(p.grad[k], (lp - lm) / (2 * eps), 2e-2)
            << "dim=" << dim << " param entry " << k;
        ++checked;
      }
    }
    EXPECT_GT(checked, 20) << "dim=" << dim;
  }
}

TEST_F(SgFormerTest, GradientNumericNodeLoss) {
  for (const std::size_t dim : {8u, 16u, 32u}) {
    // Loss over a single node embedding entry exercises the node-grad path.
    SgFormer::Config cfg = cfg_;
    cfg.dim = dim;
    SgFormer enc(cfg);
    SgFormer::Activations act;
    encode(enc, act);
    enc.zero_grad();
    std::vector<float> d_node(4 * dim);
    d_node[2 * dim + 3] = 1.0f;  // row 2, column 3
    enc.backward(act, d_node, {});

    std::vector<ParamRef> params;
    enc.collect_params(params);
    SgFormer::Activations probe;
    auto loss_fn = [&]() {
      encode(enc, probe);
      return static_cast<double>(probe.node_emb.at(2, 3));
    };
    const float eps = 1e-3f;
    const ParamRef& p = params[0];  // w_in
    for (std::size_t k = 0; k < p.size; k += 7) {
      const float orig = p.value[k];
      p.value[k] = orig + eps;
      const double lp = loss_fn();
      p.value[k] = orig - eps;
      const double lm = loss_fn();
      p.value[k] = orig;
      EXPECT_NEAR(p.grad[k], (lp - lm) / (2 * eps), 2e-2)
          << "dim=" << dim << " w_in entry " << k;
    }
  }
}

TEST_F(SgFormerTest, SerializationRoundTrip) {
  SgFormer enc(cfg_);
  SgFormer::Activations before, after;
  encode(enc, before);
  std::string bytes;
  util::ByteWriter out(bytes);
  enc.save(out);
  util::ByteReader in(bytes);
  SgFormer back = SgFormer::load(in);
  EXPECT_TRUE(in.done());
  encode(back, after);
  for (std::size_t i = 0; i < before.node_emb.size(); ++i) {
    EXPECT_FLOAT_EQ(after.node_emb.data()[i], before.node_emb.data()[i]);
  }
}

// A loaded encoder carries no gradient storage until a training entry
// point needs it; backward on one must then accumulate exactly what the
// encoder it was saved from does.
TEST_F(SgFormerTest, LoadedEncoderSizesGradientsOnFirstTrainingUse) {
  SgFormer enc(cfg_);
  std::string bytes;
  util::ByteWriter out(bytes);
  enc.save(out);
  util::ByteReader in(bytes);
  SgFormer back = SgFormer::load(in);

  const std::vector<float> d_graph(8, 1.0f);
  for (SgFormer* e : {&enc, &back}) {
    SgFormer::Activations act;
    encode(*e, act);
    e->backward(act, {}, d_graph);
  }
  std::vector<ParamRef> want, got;
  enc.collect_params(want);
  back.collect_params(got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size, want[i].size) << "param " << i;
    EXPECT_EQ(std::memcmp(got[i].grad, want[i].grad,
                          want[i].size * sizeof(float)),
              0)
        << "param " << i;
  }
}

// An encoder artifact's weights must have the shapes its config implies,
// and no declared shape may need more floats than the input holds: the
// forward passes index every weight by the config's dims unchecked.
TEST(SgFormerArtifactTest, HostileShapesGetSerializeError) {
  const auto header = [](std::string& bytes, std::uint64_t in_dim,
                         std::uint64_t dim) {
    util::ByteWriter out(bytes);
    out.header("SGFM", 1);
    out.u64(in_dim);
    out.u64(dim);
    out.f64(0.5);
    out.u64(1);
  };
  const auto load = [](const std::string& bytes) {
    util::ByteReader in(bytes);
    return SgFormer::load(in);
  };

  // Eight 1x1 weights under a 19 -> 16 config.
  std::string small;
  header(small, 19, 16);
  util::ByteWriter small_out(small);
  for (int i = 0; i < 8; ++i) write_matrix(small_out, Matrix(1, 1, 0.5f));
  EXPECT_THROW(load(small), util::SerializeError);

  // 2^33 x 2^31 floats: the element count wraps to zero in 64 bits.
  std::string wrap;
  util::ByteWriter wrap_out(wrap);
  wrap_out.u64(1ull << 33);
  wrap_out.u64(1ull << 31);
  wrap_out.u64(0);
  util::ByteReader wrap_in(wrap);
  EXPECT_THROW(read_matrix(wrap_in), util::SerializeError);

  // A config whose encoder would take terabytes, over no weights at all.
  std::string huge;
  header(huge, 19, 1ull << 36);
  EXPECT_THROW(load(huge), util::SerializeError);
}

TEST_F(SgFormerTest, SegmentForwardBitIdenticalToForward) {
  // The one forward body under its two buffer maps: forward_segment()'s
  // aliased scratch (serving) and forward_train()'s Activations
  // (pre-training) must give the same graph embedding byte for byte, so the
  // encoder serves exactly what it was trained as. Dims 16 and 32 run the
  // width-specialized kernels, 8 the generic loops; the last graph is
  // random. The scratch and every activation buffer are pre-filled with NaN
  // and reused across graphs of different sizes, which shows their stale
  // contents never reach the result.
  util::Rng rng(91);
  const std::vector<std::size_t> sizes = {4, 2, 5, 1, 37};
  const std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      edge_sets = {edges_, {{0, 1}}, {{0, 1}, {1, 2}, {2, 4}, {3, 4}, {0, 4}},
                   {}, random_edges(37, 111, rng)};
  std::vector<Matrix> feats;
  std::vector<SgFormer::NormAdjacency> adjs;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    feats.push_back(Matrix::randn(sizes[g], 6, rng, 1.0f));
    adjs.push_back(SgFormer::build_norm_adjacency(sizes[g], &edge_sets[g]));
  }

  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t dim : {8u, 16u, 32u}) {
    SgFormer::Config cfg = cfg_;
    cfg.dim = dim;
    const SgFormer enc(cfg);
    std::vector<float> scratch(enc.segment_scratch_floats(37), nan);
    SgFormer::Activations act;
    for (Matrix* m : {&act.h, &act.q, &act.k, &act.v, &act.ktv, &act.ah,
                      &act.combined, &act.node_emb}) {
      *m = Matrix(37, dim, nan);
    }
    for (const std::size_t g : {4u, 0u, 1u, 2u, 3u}) {
      act.x = feats[g];
      std::vector<float> want(dim, -1.0f);
      enc.forward_train(adjs[g], act, want.data());

      ASSERT_LE(enc.segment_scratch_floats(sizes[g]), scratch.size());
      std::vector<float> got(dim, -2.0f);
      enc.forward_segment(sizes[g], adjs[g], feats[g].data(), scratch.data(),
                          got.data());
      expect_same_bytes(got, want, "dim=" + std::to_string(dim) +
                                       " graph=" + std::to_string(g));
    }
  }
}

// The whole serving segment forward recomputed with this file's scalar
// references, from the weights as collect_params() exposes them
// (w_in, b_in, Wq, Wk, Wv, Wg, W_out, b_out), in the forward body's op order.
std::vector<float> ref_segment_forward(std::vector<ParamRef>& params,
                                       std::size_t in_dim, std::size_t d,
                                       float alpha, std::size_t n,
                                       const SgFormer::NormAdjacency& adj,
                                       const float* features) {
  const float* w_in = params[0].value;
  const float* b_in = params[1].value;
  const float* wq = params[2].value;
  const float* wk = params[3].value;
  const float* wv = params[4].value;
  const float* wg = params[5].value;
  const float* w_out = params[6].value;
  const float* b_out = params[7].value;
  const std::size_t nd = n * d;
  auto add_bias = [&](std::vector<float>& x, const float* bias) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) x[i * d + j] += bias[j];
    }
  };
  auto relu = [](std::vector<float>& x) {
    for (float& v : x) v = v > 0.0f ? v : 0.0f;
  };

  std::vector<float> h(nd, 0.0f);
  ref_gemm_rows(features, in_dim, w_in, d, h.data(), n);
  add_bias(h, b_in);
  relu(h);

  std::vector<float> q(nd, 0.0f), k(nd, 0.0f), v(nd, 0.0f), ktv(d * d, 0.0f);
  ref_gemm_rows(h.data(), d, wq, d, q.data(), n);
  ref_gemm_rows(h.data(), d, wk, d, k.data(), n);
  ref_gemm_rows(h.data(), d, wv, d, v.data(), n);
  ref_gemm_tn(k.data(), d, v.data(), d, n, ktv.data());
  std::vector<float> att(nd, 0.0f);
  ref_gemm_rows(q.data(), d, ktv.data(), d, att.data(), n);
  const float att_scale = 0.5f * (1.0f / static_cast<float>(n));
  for (std::size_t i = 0; i < nd; ++i) {
    att[i] *= att_scale;
    const float hv = v[i] * 0.5f;
    att[i] += hv;
  }

  std::vector<float> ah(nd, 0.0f), combined(nd, 0.0f);
  ref_propagate(adj, h.data(), d, ah.data());
  ref_gemm_rows(ah.data(), d, wg, d, combined.data(), n);
  for (std::size_t i = 0; i < nd; ++i) {
    combined[i] *= 1.0f - alpha;
    const float as = att[i] * alpha;
    combined[i] += as;
  }
  relu(combined);

  std::vector<float> emb(nd, 0.0f);
  ref_gemm_rows(combined.data(), d, w_out, d, emb.data(), n);
  add_bias(emb, b_out);
  std::vector<float> out(d, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) out[j] += emb[i * d + j];
  }
  const float inv = 1.0f / static_cast<float>(n);
  for (float& x : out) x *= inv;
  return out;
}

TEST_F(SgFormerTest, SegmentForwardMatchesScalarReferenceBytes) {
  // forward_segment() against an oracle outside the library.
  // SegmentForwardBitIdenticalToForward compares two paths compiled with
  // the same kernels and flags, so a rounding change they share would pass
  // it; this one would not. The
  // biases are randomized (they start at zero), the features carry both
  // signed zeros so the zero-skip sees -0, and the last segment is salted
  // with every IEEE edge case salted() knows.
  util::Rng rng(515);
  for (const std::size_t dim : {16u, 32u}) {
    for (const float alpha : {0.5f, 0.3f}) {
      SgFormer::Config cfg = cfg_;
      cfg.dim = dim;
      cfg.alpha = alpha;
      SgFormer enc(cfg);
      std::vector<ParamRef> params;
      enc.collect_params(params);
      ASSERT_EQ(params.size(), 8u);
      for (const std::size_t b : {1u, 7u}) {
        for (std::size_t j = 0; j < params[b].size; ++j) {
          params[b].value[j] = static_cast<float>(rng.next_gaussian()) * 0.5f;
        }
      }
      for (const std::size_t n : {1u, 2u, 7u, 74u, 131u}) {
        const auto edges = random_edges(n, 2 * n, rng);
        const SgFormer::NormAdjacency adj =
            SgFormer::build_norm_adjacency(n, &edges);
        const bool edge_cases = n == 131;
        std::vector<float> feats = salted(n * cfg.in_dim, rng, 0.02);
        if (!edge_cases) {
          for (float& x : feats) {
            if (!std::isfinite(x) || rng.next_bool(0.4)) {
              x = rng.next_bool(0.5) ? 0.0f : -0.0f;
            }
          }
        }
        const std::vector<float> want = ref_segment_forward(
            params, cfg.in_dim, dim, alpha, n, adj, feats.data());
        std::vector<float> scratch(enc.segment_scratch_floats(n),
                                   std::numeric_limits<float>::quiet_NaN());
        std::vector<float> got(dim, -1.0f);
        enc.forward_segment(n, adj, feats.data(), scratch.data(), got.data());
        expect_same_bytes(got, want, "segment dim=" + std::to_string(dim) +
                                         " alpha=" + std::to_string(alpha) +
                                         " n=" + std::to_string(n));
      }
    }
  }
}

TEST_F(SgFormerTest, ForwardPropagationMatchesScalarEdgeLoop) {
  // The H and A H that forward_train() keeps for backward(), on a random
  // graph at the width-specialized dims, must equal the scalar GEMM and edge
  // loops byte for byte (forward_segment runs the same body; the test above
  // pins the two against each other).
  util::Rng rng(4242);
  const std::size_t n = 37;
  const auto edges = random_edges(n, 3 * n, rng);
  const SgFormer::NormAdjacency adj = SgFormer::build_norm_adjacency(n, &edges);

  for (const std::size_t dim : {16u, 32u}) {
    SgFormer::Config cfg = cfg_;
    cfg.dim = dim;
    SgFormer enc(cfg);
    std::vector<ParamRef> params;
    enc.collect_params(params);
    for (std::size_t j = 0; j < params[1].size; ++j) {  // b_in starts at zero
      params[1].value[j] = static_cast<float>(rng.next_gaussian()) * 0.5f;
    }
    SgFormer::Activations act;
    act.x = Matrix::randn(n, 6, rng, 1.0f);
    std::vector<float> graph_emb(dim);
    enc.forward_train(adj, act, graph_emb.data());

    std::vector<float> h(n * dim, 0.0f);
    ref_gemm_rows(act.x.data(), 6, params[0].value, dim, h.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        float& x = h[i * dim + j];
        x += params[1].value[j];
        x = x > 0.0f ? x : 0.0f;
      }
    }
    std::vector<float> ah(n * dim, 0.0f);
    ref_propagate(adj, h.data(), dim, ah.data());
    const auto bytes = [](const Matrix& m) {
      return std::vector<float>(m.data(), m.data() + m.size());
    };
    expect_same_bytes(bytes(act.h), h, "h dim=" + std::to_string(dim));
    expect_same_bytes(bytes(act.ah), ah, "ah dim=" + std::to_string(dim));
  }
}

TEST_F(SgFormerTest, BuildNormAdjacencyMatchesForward) {
  // A graph forwarded through two independently built SgFormers with the
  // same seed over two independently built adjacencies stays deterministic.
  SgFormer a(cfg_), b(cfg_);
  SgFormer::Activations act;
  const std::vector<float> ga = encode(a, act);
  const std::vector<float> gb =
      encode(b, act, SgFormer::build_norm_adjacency(4, &edges_));
  expect_same_bytes(gb, ga, "graph_emb");
  // Self-loops plus both directions of every edge, weights positive.
  EXPECT_EQ(adj_.edges.size(), 4 + 2 * edges_.size());
  for (const float w : adj_.weights) EXPECT_GT(w, 0.0f);
}

TEST_F(SgFormerTest, RejectsBadInputs) {
  SgFormer enc(cfg_);
  std::vector<float> graph_emb(8);
  SgFormer::Activations empty;
  EXPECT_THROW(enc.forward_train(adj_, empty, graph_emb.data()),
               std::invalid_argument);
  SgFormer::Activations wrong;
  wrong.x = Matrix(4, 5);
  EXPECT_THROW(enc.forward_train(adj_, wrong, graph_emb.data()),
               std::invalid_argument);
  const std::vector<float> d_graph(8, 1.0f);
  EXPECT_THROW(enc.backward(wrong, {}, d_graph), std::invalid_argument);
  // After a forward, a non-empty gradient of the wrong length is rejected:
  // d_node must hold n x dim floats (4 x 8 here), d_graph dim.
  SgFormer::Activations act;
  encode(enc, act);
  EXPECT_THROW(enc.backward(act, std::vector<float>(4 * 8 - 1), {}),
               std::invalid_argument);
  EXPECT_THROW(enc.backward(act, {}, std::vector<float>(4 * 8)),
               std::invalid_argument);
  EXPECT_NO_THROW(enc.backward(act, std::vector<float>(4 * 8), d_graph));
  SgFormer::Config bad;
  bad.in_dim = 0;
  EXPECT_THROW(SgFormer{bad}, std::invalid_argument);
}

/// Root-mean-square training error of a fitted model, row by row.
double rmse(const GbdtRegressor& model, const Matrix& x,
            const std::vector<double>& y) {
  double sq = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double d = model.predict_row(x.row(i)) - y[i];
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(y.size()));
}

TEST(GbdtTest, FitsLinearFunction) {
  util::Rng rng(41);
  const std::size_t n = 800;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x.at(i, j) = static_cast<float>(rng.next_double(-2, 2));
    y[i] = 3.0 * x.at(i, 0) - 2.0 * x.at(i, 1) + 0.5;
  }
  GbdtConfig cfg;
  cfg.n_trees = 150;
  cfg.learning_rate = 0.1;
  GbdtRegressor model(cfg);
  model.fit(x, y);
  EXPECT_LT(rmse(model, x, y), 0.6);
}

TEST(GbdtTest, FitsNonlinearInteraction) {
  util::Rng rng(43);
  const std::size_t n = 1500;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.next_double(-1, 1));
    x.at(i, 1) = static_cast<float>(rng.next_double(-1, 1));
    // Depth-2 interaction with asymmetric thresholds (pure XOR has zero
    // marginal gain at the root, which defeats any greedy variance
    // splitter, including XGBoost's).
    y[i] = (x.at(i, 0) > 0.2 && x.at(i, 1) > -0.1) ? 5.0 : -5.0;
  }
  GbdtConfig cfg;
  cfg.n_trees = 80;
  cfg.learning_rate = 0.2;
  GbdtRegressor model(cfg);
  model.fit(x, y);
  // Quantile binning leaves irreducible error near the step boundary; the
  // bar is "far below the target's std-dev of 5", not exact recovery.
  EXPECT_LT(rmse(model, x, y), 3.0);
}

TEST(GbdtTest, BatchedTraversalBitIdenticalToPredictRow) {
  // The SoA forest traversal (predict_rows) must reproduce the pointer-
  // chasing predict_row exactly: same trees, same accumulation order
  // (base + tree 0 + tree 1 + ...), so every double is bit-identical —
  // including on NaN features, which fail every comparison and go right
  // in both layouts.
  util::Rng rng(47);
  const std::size_t n = 400;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      x.at(i, j) = static_cast<float>(rng.next_double(-2, 2));
    }
    y[i] = std::sin(x.at(i, 0)) + 0.5 * x.at(i, 1) * x.at(i, 2);
  }
  GbdtConfig cfg;
  cfg.n_trees = 30;
  GbdtRegressor model(cfg);
  model.fit(x, y);

  // Queries include NaN, +-inf and out-of-distribution values. The row
  // counts cover one row, a partial 64-row block, one full block plus a
  // tail, and two full blocks plus a tail.
  Matrix q(130, 3);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      q.at(i, j) = static_cast<float>(rng.next_double(-4, 4));
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  q.at(0, 2) = -inf;
  q.at(5, 1) = std::numeric_limits<float>::quiet_NaN();
  q.at(17, 0) = std::numeric_limits<float>::quiet_NaN();
  q.at(62, 0) = inf;
  q.at(64, 1) = -inf;
  q.at(100, 0) = inf;
  q.at(100, 1) = inf;
  q.at(100, 2) = inf;
  q.at(129, 0) = -inf;
  q.at(129, 1) = std::numeric_limits<float>::quiet_NaN();

  std::vector<double> serial(q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    serial[i] = model.predict_row(q.row(i));
  }
  for (const std::size_t n_rows : {1u, 63u, 65u, 130u}) {
    std::vector<double> batched(n_rows);
    model.predict_rows(q.data(), n_rows, q.cols(), batched.data());
    for (std::size_t i = 0; i < n_rows; ++i) {
      EXPECT_EQ(batched[i], serial[i]) << "row " << i << " of " << n_rows;
    }
  }
}

TEST(GbdtTest, ConstantTargetPredictsConstant) {
  Matrix x(20, 2);
  for (std::size_t i = 0; i < 20; ++i) x.at(i, 0) = static_cast<float>(i);
  std::vector<double> y(20, 7.5);
  GbdtRegressor model;
  model.fit(x, y);
  EXPECT_NEAR(model.predict_row(x.row(3)), 7.5, 1e-9);
}

TEST(GbdtTest, SerializationRoundTrip) {
  util::Rng rng(47);
  Matrix x(200, 4);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x.at(i, j) = static_cast<float>(rng.next_double());
    y[i] = x.at(i, 0) * 4 - x.at(i, 2);
  }
  GbdtConfig cfg;
  cfg.n_trees = 40;
  GbdtRegressor model(cfg);
  model.fit(x, y);
  std::string bytes;
  util::ByteWriter out(bytes);
  model.save(out);
  util::ByteReader in(bytes);
  const GbdtRegressor back = GbdtRegressor::load(in);
  EXPECT_TRUE(in.done());
  for (std::size_t i = 0; i < 200; i += 17) {
    EXPECT_DOUBLE_EQ(back.predict_row(x.row(i)), model.predict_row(x.row(i)));
  }
}

/// One hand-written GBDT node as the artifact stores it.
struct RawNode {
  std::int64_t feature, left, right;
  float threshold = 0.5f;
  double value = 0.0;
};

/// A one-tree GBDT artifact over `num_features` features.
std::string gbdt_artifact(std::uint64_t num_features,
                          const std::vector<RawNode>& nodes) {
  std::string bytes;
  util::ByteWriter out(bytes);
  out.header("GBDT", 1);
  out.u64(num_features);
  out.f64(0.0);
  out.u64(1);
  out.u64(nodes.size());
  for (const RawNode& n : nodes) {
    out.i64(n.feature);
    out.f32(n.threshold);
    out.i64(n.left);
    out.i64(n.right);
    out.f64(n.value);
  }
  return bytes;
}

GbdtRegressor load_gbdt(const std::string& bytes) {
  util::ByteReader in(bytes);
  return GbdtRegressor::load(in);
}

TEST(GbdtTest, HandWrittenTreeLoadsAndPredicts) {
  // Control for the hostile cases below: a well-formed split loads and both
  // predict paths route by it.
  const GbdtRegressor m = load_gbdt(gbdt_artifact(
      2, {{1, 1, 2}, {-1, -1, -1, 0.0f, 10.0}, {-1, -1, -1, 0.0f, 20.0}}));
  const float lo[2] = {9.0f, 0.25f};
  const float hi[2] = {9.0f, 0.75f};
  EXPECT_EQ(m.predict_row(lo), 10.0);
  EXPECT_EQ(m.predict_row(hi), 20.0);
  double out[2];
  const float rows[4] = {9.0f, 0.25f, 9.0f, 0.75f};
  m.predict_rows(rows, 2, 2, out);
  EXPECT_EQ(out[0], 10.0);
  EXPECT_EQ(out[1], 20.0);
}

TEST(GbdtTest, HostileArtifactsGetSerializeError) {
  // Node fields index the feature row and the forest arrays unchecked at
  // predict time; load must reject every shape that would read or write
  // out of bounds, or walk forever, before any of it is used.
  const RawNode leaf{-1, -1, -1};
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"child past the tree", gbdt_artifact(2, {{0, 1, 99}, leaf})},
      {"negative child", gbdt_artifact(2, {{0, -5, 1}, leaf})},
      {"child pointing at its parent", gbdt_artifact(2, {{0, 1, 0}, leaf})},
      {"backward child", gbdt_artifact(2, {{0, 1, 2}, {0, 0, 2}, leaf})},
      {"feature past the row", gbdt_artifact(2, {{2, 1, 2}, leaf, leaf})},
      {"negative non-leaf feature", gbdt_artifact(2, {{-2, 1, 2}, leaf, leaf})},
      {"feature beyond int", gbdt_artifact(2, {{1ll << 40, 1, 2}, leaf, leaf})},
      {"empty tree", gbdt_artifact(2, {})},
  };
  for (const auto& [what, bytes] : cases) {
    EXPECT_THROW(load_gbdt(bytes), util::SerializeError) << what;
  }

  // A tree count no stream could hold fails before allocating for it.
  std::string bytes;
  util::ByteWriter out(bytes);
  out.header("GBDT", 1);
  out.u64(2);
  out.f64(0.0);
  out.u64(1ull << 60);
  EXPECT_THROW(load_gbdt(bytes), util::SerializeError);
}

TEST(GbdtTest, InvalidInputsThrow) {
  GbdtRegressor model;
  Matrix empty;
  EXPECT_THROW(model.fit(empty, {}), std::invalid_argument);
  Matrix x(3, 2);
  EXPECT_THROW(model.fit(x, {1.0, 2.0}), std::invalid_argument);
  GbdtConfig bad;
  bad.max_depth = 0;
  EXPECT_THROW(GbdtRegressor{bad}, std::invalid_argument);
}

TEST(GbdtTest, RespectsMinLeaf) {
  // With min_samples_leaf = n, no split is possible: every prediction is
  // the target mean.
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x.at(i, 0) = static_cast<float>(i);
    y[i] = static_cast<double>(i);
  }
  GbdtConfig cfg;
  cfg.min_samples_leaf = 10;
  cfg.n_trees = 10;
  cfg.subsample = 1.0;  // bagging would shift the in-bag leaf mean
  GbdtRegressor model(cfg);
  model.fit(x, y);
  EXPECT_NEAR(model.predict_row(x.row(0)), 4.5, 1e-9);
  EXPECT_NEAR(model.predict_row(x.row(9)), 4.5, 1e-9);
}

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize f(w) = sum (w_i - t_i)^2 directly through ParamRefs.
  std::vector<float> w(4, 0.0f);
  std::vector<float> g(4, 0.0f);
  const std::vector<float> target = {1.0f, -2.0f, 3.0f, 0.5f};
  Adam adam({ParamRef{w.data(), g.data(), 4}}, AdamConfig{.lr = 0.05f});
  for (int step = 0; step < 500; ++step) {
    for (int i = 0; i < 4; ++i) g[static_cast<std::size_t>(i)] = 2 * (w[static_cast<std::size_t>(i)] - target[static_cast<std::size_t>(i)]);
    adam.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w[static_cast<std::size_t>(i)], target[static_cast<std::size_t>(i)], 1e-2);
}

}  // namespace
}  // namespace atlas::ml
