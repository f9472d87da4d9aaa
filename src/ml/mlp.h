// Linear layers and MLPs with manual backprop.
//
// Used for the temporary pre-training heads the paper attaches to the
// encoder (masked-toggle classifier, masked-node-type classifier, size
// regressor) and discarded after pre-training.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/matrix.h"

namespace atlas::ml {

/// View onto a trainable parameter buffer and its gradient (for Adam).
struct ParamRef {
  float* value = nullptr;
  float* grad = nullptr;
  std::size_t size = 0;
};

class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, util::Rng& rng);

  /// y = x W + b; caches x for backward.
  Matrix forward(const Matrix& x);
  /// The input the last forward() cached.
  const Matrix& input() const { return cached_x_; }
  /// Accumulates dW/db from the cached input; returns dx.
  Matrix backward(const Matrix& dy);

  void zero_grad();
  void collect_params(std::vector<ParamRef>& out);

  std::size_t in_dim() const { return w_.rows(); }
  std::size_t out_dim() const { return w_.cols(); }

 private:
  Matrix w_, b_;    // weights (in x out), bias (1 x out)
  Matrix gw_, gb_;  // gradients
  Matrix cached_x_;
};

/// MLP: Linear (+ReLU) stacks; last layer linear (logits / regression).
class Mlp {
 public:
  Mlp() = default;
  /// dims = {in, hidden..., out}.
  Mlp(const std::vector<std::size_t>& dims, util::Rng& rng);

  Matrix forward(const Matrix& x);
  Matrix backward(const Matrix& dy);

  void zero_grad();
  void collect_params(std::vector<ParamRef>& out);

 private:
  std::vector<Linear> layers_;
};

}  // namespace atlas::ml
