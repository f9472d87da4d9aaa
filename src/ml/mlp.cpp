#include "ml/mlp.h"

#include <stdexcept>

namespace atlas::ml {

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng)
    : w_(Matrix::xavier(in, out, rng)), b_(1, out), gw_(in, out), gb_(1, out) {}

Matrix Linear::forward(const Matrix& x) {
  cached_x_ = x;
  Matrix y = matmul(x, w_);
  add_row_bias(y, b_);
  return y;
}

Matrix Linear::backward(const Matrix& dy) {
  if (cached_x_.empty()) throw std::logic_error("Linear::backward before forward");
  gw_ += matmul_tn(cached_x_, dy);
  // db = column sums of dy.
  for (std::size_t i = 0; i < dy.rows(); ++i) {
    const float* r = dy.row(i);
    for (std::size_t j = 0; j < dy.cols(); ++j) gb_.at(0, j) += r[j];
  }
  return matmul_nt(dy, w_);
}

void Linear::zero_grad() {
  gw_.fill(0.0f);
  gb_.fill(0.0f);
}

void Linear::collect_params(std::vector<ParamRef>& out) {
  out.push_back(ParamRef{w_.data(), gw_.data(), w_.size()});
  out.push_back(ParamRef{b_.data(), gb_.data(), b_.size()});
}

Mlp::Mlp(const std::vector<std::size_t>& dims, util::Rng& rng) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp: need at least in/out dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Matrix Mlp::forward(const Matrix& x) {
  Matrix h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h);
    if (i + 1 < layers_.size()) raw::relu(h.data(), h.size());
  }
  return h;
}

Matrix Mlp::backward(const Matrix& dy) {
  Matrix g = dy;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i].backward(g);
    // Layer i's input is layer i-1's ReLU output.
    if (i > 0) relu_backward(g, layers_[i].input());
  }
  return g;
}

void Mlp::zero_grad() {
  for (Linear& l : layers_) l.zero_grad();
}

void Mlp::collect_params(std::vector<ParamRef>& out) {
  for (Linear& l : layers_) l.collect_params(out);
}

}  // namespace atlas::ml
