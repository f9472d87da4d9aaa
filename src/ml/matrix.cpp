#include "ml/matrix.h"

#include <cmath>
#include <stdexcept>

namespace atlas::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, float init)
    : rows_(rows), cols_(cols), data_(rows * cols, init) {}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                     float stddev) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng.next_gaussian()) * stddev;
  }
  return m;
}

Matrix Matrix::xavier(std::size_t fan_in, std::size_t fan_out, util::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in + fan_out));
  return randn(fan_in, fan_out, rng, stddev);
}

void Matrix::fill(float v) {
  for (float& x : data_) x = v;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix& Matrix::operator+=(const Matrix& o) {
  if (rows_ != o.rows_ || cols_ != o.cols_) {
    throw std::invalid_argument("Matrix+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& x : data_) x *= s;
  return *this;
}

namespace raw {

namespace {

// Width-specialized bodies for the encoder's output widths. Each output row
// accumulates in a local acc[D] loaded from and stored back to C. Every D-wide
// loop is fully unrolled (#pragma GCC unroll), so acc becomes D / 4 xmm
// registers held across the whole k loop. Rolled, GCC 12 still vectorizes these
// loops but keeps acc in a stack array, so every k step pays a load, add and
// store through store forwarding. With baseline SSE2 the unrolled body compiles
// to mulps/addps. Per output element the arithmetic is exactly the generic
// loop's: k ascending, the same av == 0 skip, and a separate multiply and add
// (the build pins -ffp-contract=off), and SIMD lanes round like the scalar ops,
// so the results are bit-identical to the generic path.

template <std::size_t D>
void gemm_rows_fixed(const float* a, std::size_t a_cols, const float* b,
                     float* c, std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* ar = a + i * a_cols;
    float* cr = c + i * D;
    float acc[D];
    #pragma GCC unroll 32
    for (std::size_t j = 0; j < D; ++j) acc[j] = cr[j];
    for (std::size_t k = 0; k < a_cols; ++k) {
      const float av = ar[k];
      if (av == 0.0f) continue;
      const float* br = b + k * D;
      #pragma GCC unroll 32
      for (std::size_t j = 0; j < D; ++j) acc[j] += av * br[j];
    }
    #pragma GCC unroll 32
    for (std::size_t j = 0; j < D; ++j) cr[j] = acc[j];
  }
}

// i-outer, k-inner: each output row of A^T B stays in acc while k walks
// the shared dimension in the same ascending order as the generic
// k-outer loop, so every element sees the same sequence of adds.
template <std::size_t D>
void gemm_tn_fixed(const float* a, std::size_t a_cols, const float* b,
                   std::size_t n, float* c) {
  for (std::size_t i = 0; i < a_cols; ++i) {
    float* cr = c + i * D;
    float acc[D];
    #pragma GCC unroll 32
    for (std::size_t j = 0; j < D; ++j) acc[j] = cr[j];
    for (std::size_t k = 0; k < n; ++k) {
      const float av = a[k * a_cols + i];
      if (av == 0.0f) continue;
      const float* br = b + k * D;
      #pragma GCC unroll 32
      for (std::size_t j = 0; j < D; ++j) acc[j] += av * br[j];
    }
    #pragma GCC unroll 32
    for (std::size_t j = 0; j < D; ++j) cr[j] = acc[j];
  }
}

template <std::size_t D>
void propagate_fixed(const std::pair<std::uint32_t, std::uint32_t>* edges,
                     const float* weights, std::size_t n_edges, const float* x,
                     float* y) {
  for (std::size_t e = 0; e < n_edges; ++e) {
    const float w = weights[e];
    const float* src = x + std::size_t{edges[e].second} * D;
    float* dst = y + std::size_t{edges[e].first} * D;
    float acc[D];
    #pragma GCC unroll 32
    for (std::size_t c = 0; c < D; ++c) acc[c] = dst[c];
    #pragma GCC unroll 32
    for (std::size_t c = 0; c < D; ++c) acc[c] += w * src[c];
    #pragma GCC unroll 32
    for (std::size_t c = 0; c < D; ++c) dst[c] = acc[c];
  }
}

}  // namespace

// The generic loops below are the reference; widths 16 and 32 (the encoder
// dims in use) take the fixed-width bodies above.

void gemm_rows(const float* a, std::size_t a_cols, const float* b,
               std::size_t b_cols, float* c, std::size_t r0, std::size_t r1) {
  if (b_cols == 16) return gemm_rows_fixed<16>(a, a_cols, b, c, r0, r1);
  if (b_cols == 32) return gemm_rows_fixed<32>(a, a_cols, b, c, r0, r1);
  for (std::size_t i = r0; i < r1; ++i) {
    const float* ar = a + i * a_cols;
    float* cr = c + i * b_cols;
    for (std::size_t k = 0; k < a_cols; ++k) {
      const float av = ar[k];
      if (av == 0.0f) continue;
      const float* br = b + k * b_cols;
      for (std::size_t j = 0; j < b_cols; ++j) cr[j] += av * br[j];
    }
  }
}

void gemm_tn(const float* a, std::size_t a_cols, const float* b,
             std::size_t b_cols, std::size_t n, float* c) {
  if (b_cols == 16) return gemm_tn_fixed<16>(a, a_cols, b, n, c);
  if (b_cols == 32) return gemm_tn_fixed<32>(a, a_cols, b, n, c);
  for (std::size_t k = 0; k < n; ++k) {
    const float* ar = a + k * a_cols;
    const float* br = b + k * b_cols;
    for (std::size_t i = 0; i < a_cols; ++i) {
      const float av = ar[i];
      if (av == 0.0f) continue;
      float* cr = c + i * b_cols;
      for (std::size_t j = 0; j < b_cols; ++j) cr[j] += av * br[j];
    }
  }
}

void propagate(const std::pair<std::uint32_t, std::uint32_t>* edges,
               const float* weights, std::size_t n_edges, const float* x,
               std::size_t cols, float* y) {
  if (cols == 16) return propagate_fixed<16>(edges, weights, n_edges, x, y);
  if (cols == 32) return propagate_fixed<32>(edges, weights, n_edges, x, y);
  for (std::size_t e = 0; e < n_edges; ++e) {
    const float w = weights[e];
    const float* src = x + std::size_t{edges[e].second} * cols;
    float* dst = y + std::size_t{edges[e].first} * cols;
    for (std::size_t c = 0; c < cols; ++c) dst[c] += w * src[c];
  }
}

void add_row_bias_rows(float* x, std::size_t cols, const float* bias,
                       std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    float* r = x + i * cols;
    for (std::size_t j = 0; j < cols; ++j) r[j] += bias[j];
  }
}

// A select rather than a branch: activations are ~half negative in no
// predictable pattern. NaN and -0 become +0.
void relu(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void mean_rows(const float* x, std::size_t rows, std::size_t cols, float* out) {
  for (std::size_t j = 0; j < cols; ++j) out[j] = 0.0f;
  if (rows == 0) return;
  for (std::size_t i = 0; i < rows; ++i) {
    const float* r = x + i * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += r[j];
  }
  const float inv = 1.0f / static_cast<float>(rows);
  for (std::size_t j = 0; j < cols; ++j) out[j] *= inv;
}

}  // namespace raw

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  Matrix c(a.rows(), b.cols());
  raw::gemm_rows(a.data(), a.cols(), b.data(), b.cols(), c.data(), 0, a.rows());
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn: shape mismatch");
  Matrix c(a.cols(), b.cols());
  raw::gemm_tn(a.data(), a.cols(), b.data(), b.cols(), a.rows(), c.data());
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt: shape mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ar = a.row(i);
    float* cr = c.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const float* br = b.row(j);
      float dot = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) dot += ar[k] * br[k];
      cr[j] = dot;
    }
  }
  return c;
}

void add_row_bias(Matrix& x, const Matrix& bias) {
  if (bias.rows() != 1 || bias.cols() != x.cols()) {
    throw std::invalid_argument("add_row_bias: shape mismatch");
  }
  raw::add_row_bias_rows(x.data(), x.cols(), bias.data(), 0, x.rows());
}

void relu_backward(Matrix& grad, const Matrix& post) {
  if (post.size() != grad.size()) {
    throw std::invalid_argument("relu_backward: shape mismatch");
  }
  float* g = grad.data();
  const float* p = post.data();
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (!(p[i] > 0.0f)) g[i] = 0.0f;
  }
}

std::vector<float> l2_normalize_rows(Matrix& x, float eps) {
  std::vector<float> norms(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    float* r = x.row(i);
    float sq = 0.0f;
    for (std::size_t j = 0; j < x.cols(); ++j) sq += r[j] * r[j];
    const float n = std::sqrt(sq) + eps;
    norms[i] = n;
    for (std::size_t j = 0; j < x.cols(); ++j) r[j] /= n;
  }
  return norms;
}

void write_matrix(util::ByteWriter& out, const Matrix& m) {
  out.u64(m.rows());
  out.u64(m.cols());
  out.f32_span(m.data(), m.size());
}

Matrix read_matrix(util::ByteReader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t cols = in.u64();
  // The product must fit the floats left, checked without forming it (it
  // could wrap) and before the matrix is allocated.
  const std::uint64_t fit = in.remaining() / sizeof(float);
  if (rows > fit || cols > fit || (cols != 0 && rows > fit / cols)) {
    throw util::SerializeError("matrix " + std::to_string(rows) + "x" +
                               std::to_string(cols) + " exceeds the " +
                               std::to_string(in.remaining()) + " bytes left");
  }
  Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  in.f32_span(m.data(), m.size());
  return m;
}

}  // namespace atlas::ml
