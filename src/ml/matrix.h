// Dense row-major float matrix and the small op set the ML stack needs.
//
// Substitutes for the paper's PyTorch tensor substrate at the scale this
// repo trains (graphs of 10^2..10^4 nodes, hidden dims of 16..128).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"

namespace atlas::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float init = 0.0f);

  /// Gaussian init with the given std deviation.
  static Matrix randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                      float stddev);
  /// Xavier/Glorot-scaled init for a (fan_in x fan_out) weight.
  static Matrix xavier(std::size_t fan_in, std::size_t fan_out, util::Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float v);
  /// Reshape to rows x cols, keeping the storage when it is large enough.
  /// The contents are unspecified afterwards.
  void resize(std::size_t rows, std::size_t cols);

  Matrix& operator+=(const Matrix& o);
  Matrix& operator*=(float s);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// Raw row-major kernels. These are the single source of truth for the
// arithmetic: the Matrix entry points below and the SGFormer forward body
// (behind both forward_segment and forward_train) delegate here, so the
// Matrix-level backward and the forward share loop order and rounding by
// construction. Each output row of gemm_rows depends only on the matching
// input row, which is what makes row-chunk parallelism bit-identical to the
// serial matmul.
namespace raw {

/// C rows [r0, r1) = A rows [r0, r1) * B. C rows must be pre-zeroed.
/// A is (? x a_cols) row-major, B is (a_cols x b_cols), C is (? x b_cols).
void gemm_rows(const float* a, std::size_t a_cols, const float* b,
               std::size_t b_cols, float* c, std::size_t r0, std::size_t r1);

/// C (a_cols x b_cols, pre-zeroed) += A^T * B over rows [0, n), k ascending.
void gemm_tn(const float* a, std::size_t a_cols, const float* b,
             std::size_t b_cols, std::size_t n, float* c);

/// y += A x for a sparse A given as an edge list: for each edge e = (i, j),
/// in list order, row i of y gets weights[e] * row j of x. x and y are
/// row-major, cols wide, and must not overlap.
void propagate(const std::pair<std::uint32_t, std::uint32_t>* edges,
               const float* weights, std::size_t n_edges, const float* x,
               std::size_t cols, float* y);

/// Rows [r0, r1) of x (row-major, cols wide) get bias (1 x cols) added.
void add_row_bias_rows(float* x, std::size_t cols, const float* bias,
                       std::size_t r0, std::size_t r1);

/// ReLU over n contiguous floats (no backward mask).
void relu(float* x, std::size_t n);

/// out (1 x cols) = mean over `rows` rows of x: row-order sum, then * 1/rows.
void mean_rows(const float* x, std::size_t rows, std::size_t cols, float* out);

}  // namespace raw

/// C = A * B. Dimension mismatches throw std::invalid_argument.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// y = x with each row offset by bias (bias is 1 x cols).
void add_row_bias(Matrix& x, const Matrix& bias);

/// ReLU backward: zero grad where the forward ReLU (raw::relu) clipped, read
/// back from its output `post`. post > 0 is exactly the forward's keep test,
/// so a NaN or -0 input (clipped to +0) is masked too.
void relu_backward(Matrix& grad, const Matrix& post);

/// L2-normalize each row in place; returns the original norms (for backward).
std::vector<float> l2_normalize_rows(Matrix& x, float eps = 1e-8f);

void write_matrix(util::ByteWriter& out, const Matrix& m);
/// Throws util::SerializeError when the declared shape needs more floats
/// than the input has left (checked before allocating) or is truncated.
Matrix read_matrix(util::ByteReader& in);

}  // namespace atlas::ml
