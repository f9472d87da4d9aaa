// Gradient-boosted regression trees (squared loss), histogram-based.
//
// Substitutes for XGBoost in the fine-tuning stage (paper Sec. V/VI: "500
// estimators and a depth of 5, taking only several seconds for training").
// Trees are grown level-wise on quantile-binned features; each tree fits the
// current residuals and contributes shrinkage * leaf_mean to the prediction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/matrix.h"

namespace atlas::ml {

struct GbdtConfig {
  int n_trees = 500;
  int max_depth = 5;
  double learning_rate = 0.08;
  int min_samples_leaf = 4;
  double subsample = 0.8;   // row subsampling per tree
  int n_bins = 32;
  std::uint64_t seed = 7;
};

class GbdtRegressor {
 public:
  explicit GbdtRegressor(const GbdtConfig& config = {});

  /// Fit on features [N, F] and targets y (size N). Throws on shape errors
  /// or empty input. Refitting replaces the previous model.
  void fit(const Matrix& x, const std::vector<double>& y);

  double predict_row(const float* features) const;

  /// Batched inference over `n` feature rows laid out row-major with
  /// `stride` floats between row starts; writes one double per row to `out`.
  /// Traverses the flattened SoA forest trees-outer / row-block-inner, so
  /// the contiguous feature/threshold/child arrays stream through cache once
  /// per tree while a block of rows advances level-by-level in lockstep (the
  /// inner loop picks each row's child with an arithmetic select, which
  /// compiles to a cmov, so no step branches on the data). Per-row
  /// accumulation order (base + tree 0 + tree 1 + ...) matches predict_row
  /// exactly, so results are bit-identical.
  void predict_rows(const float* rows, std::size_t n, std::size_t stride,
                    double* out) const;

  bool trained() const { return !trees_.empty() || base_ != 0.0; }
  std::size_t num_features() const { return num_features_; }
  std::size_t num_trees() const { return trees_.size(); }

  void save(util::ByteWriter& out) const;
  /// Throws util::SerializeError on a truncated input or a hostile tree: an
  /// empty tree, or a split whose feature is outside [0, num_features) or
  /// whose child is not a later node of the same tree.
  static GbdtRegressor load(util::ByteReader& in);

 private:
  struct Node {
    int feature = -1;        // -1: leaf
    float threshold = 0.0f;  // go left if value <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;      // leaf output (already shrunk)
  };
  struct Tree {
    std::vector<Node> nodes;
    double predict(const float* features) const;
  };

  /// SoA mirror of trees_ for batched traversal (rebuilt by fit/load).
  /// Leaves are rewritten as self-loops (feature 0, threshold +inf,
  /// left = right = self) so a block of rows can take a fixed number of
  /// unconditional compare/select steps per tree: internal-node decisions
  /// are unchanged, and a row already at its leaf just spins in place.
  struct Forest {
    std::vector<std::int32_t> feature;
    std::vector<float> threshold;
    std::vector<std::int32_t> left, right;  // absolute node indices
    std::vector<double> value;
    std::vector<std::int32_t> roots;  // root node index per tree
    std::vector<std::int32_t> depth;  // traversal steps needed per tree
  };
  void rebuild_forest();

  GbdtConfig config_;
  std::size_t num_features_ = 0;
  double base_ = 0.0;  // mean target
  std::vector<Tree> trees_;
  Forest forest_;
};

}  // namespace atlas::ml
