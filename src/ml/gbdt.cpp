#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace atlas::ml {

namespace {
// Grain for row-indexed parallel loops. Rows are cheap (a handful of tree
// traversals or binary searches), so chunks are sized in the hundreds.
constexpr std::size_t kRowsPerChunk = 512;
}  // namespace

double GbdtRegressor::Tree::predict(const float* features) const {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    idx = features[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

GbdtRegressor::GbdtRegressor(const GbdtConfig& config) : config_(config) {
  if (config_.n_trees < 0 || config_.max_depth < 1 || config_.n_bins < 2 ||
      config_.learning_rate <= 0.0) {
    throw std::invalid_argument("GbdtRegressor: invalid config");
  }
}

void GbdtRegressor::fit(const Matrix& x, const std::vector<double>& y) {
  obs::ObsSpan span("ml", "gbdt_fit");
  const std::size_t n = x.rows();
  const std::size_t f = x.cols();
  if (n == 0 || f == 0) throw std::invalid_argument("Gbdt::fit: empty input");
  if (y.size() != n) throw std::invalid_argument("Gbdt::fit: target size mismatch");
  trees_.clear();
  num_features_ = f;

  base_ = 0.0;
  for (const double v : y) base_ += v;
  base_ /= static_cast<double>(n);

  // ---- Quantile binning -----------------------------------------------------
  const int n_bins = config_.n_bins;
  // cuts[feat] has n_bins-1 ascending thresholds; bin = upper_bound(cuts, v).
  std::vector<std::vector<float>> cuts(f);
  {
    std::vector<float> vals(n);
    for (std::size_t j = 0; j < f; ++j) {
      for (std::size_t i = 0; i < n; ++i) vals[i] = x.at(i, j);
      std::sort(vals.begin(), vals.end());
      auto& c = cuts[j];
      for (int b = 1; b < n_bins; ++b) {
        const std::size_t idx =
            std::min(n - 1, static_cast<std::size_t>(
                                static_cast<double>(b) * static_cast<double>(n) /
                                n_bins));
        const float cut = vals[idx];
        if (c.empty() || cut > c.back()) c.push_back(cut);
      }
    }
  }
  // Rows bin independently — parallel, bit-identical to the serial loop.
  std::vector<std::uint8_t> binned(n * f);
  util::parallel_for(n, kRowsPerChunk, [&](std::size_t i) {
    for (std::size_t j = 0; j < f; ++j) {
      const auto& c = cuts[j];
      const float v = x.at(i, j);
      const auto it = std::upper_bound(c.begin(), c.end(), v);
      binned[i * f + j] = static_cast<std::uint8_t>(it - c.begin());
    }
  });

  std::vector<double> residual(y);
  for (std::size_t i = 0; i < n; ++i) residual[i] -= base_;

  util::Rng rng(config_.seed);
  std::vector<int> node_of(n);
  const int max_nodes_per_level = 1 << config_.max_depth;
  std::vector<double> sum(static_cast<std::size_t>(max_nodes_per_level));
  std::vector<int> cnt(static_cast<std::size_t>(max_nodes_per_level));

  for (int t = 0; t < config_.n_trees; ++t) {
    // Row subsample.
    std::vector<std::uint8_t> in_bag(n, 1);
    if (config_.subsample < 1.0) {
      for (std::size_t i = 0; i < n; ++i) {
        in_bag[i] = rng.next_bool(config_.subsample) ? 1 : 0;
      }
    }

    Tree tree;
    tree.nodes.push_back(Node{});
    // frontier: node ids at the current level.
    std::vector<int> frontier = {0};
    std::fill(node_of.begin(), node_of.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_bag[i]) node_of[i] = -1;
    }

    for (int depth = 0; depth < config_.max_depth && !frontier.empty(); ++depth) {
      // Histograms: [frontier_slot][feature][bin] -> (sum, count).
      const std::size_t slots = frontier.size();
      std::vector<int> slot_of_node(tree.nodes.size(), -1);
      for (std::size_t s = 0; s < slots; ++s) {
        slot_of_node[static_cast<std::size_t>(frontier[s])] = static_cast<int>(s);
      }
      std::vector<double> hist_sum(slots * f * static_cast<std::size_t>(n_bins), 0.0);
      std::vector<int> hist_cnt(slots * f * static_cast<std::size_t>(n_bins), 0);
      for (std::size_t i = 0; i < n; ++i) {
        const int node = node_of[i];
        if (node < 0) continue;
        const int s = slot_of_node[static_cast<std::size_t>(node)];
        if (s < 0) continue;
        const double r = residual[i];
        const std::uint8_t* row_bins = &binned[i * f];
        const std::size_t base_idx =
            static_cast<std::size_t>(s) * f * static_cast<std::size_t>(n_bins);
        for (std::size_t j = 0; j < f; ++j) {
          const std::size_t idx =
              base_idx + j * static_cast<std::size_t>(n_bins) + row_bins[j];
          hist_sum[idx] += r;
          ++hist_cnt[idx];
        }
      }

      // Pick the best split per frontier node.
      struct Split {
        int feature = -1;
        int bin = -1;  // go left if bin <= this
        double gain = 0.0;
      };
      std::vector<Split> best(slots);
      for (std::size_t s = 0; s < slots; ++s) {
        // Node totals from feature 0 histogram.
        double total_sum = 0.0;
        int total_cnt = 0;
        const std::size_t base_idx =
            s * f * static_cast<std::size_t>(n_bins);
        for (int b = 0; b < n_bins; ++b) {
          total_sum += hist_sum[base_idx + static_cast<std::size_t>(b)];
          total_cnt += hist_cnt[base_idx + static_cast<std::size_t>(b)];
        }
        if (total_cnt < 2 * config_.min_samples_leaf) continue;
        const double parent_score = total_sum * total_sum / total_cnt;
        for (std::size_t j = 0; j < f; ++j) {
          double left_sum = 0.0;
          int left_cnt = 0;
          const std::size_t fbase = base_idx + j * static_cast<std::size_t>(n_bins);
          for (int b = 0; b + 1 < n_bins; ++b) {
            left_sum += hist_sum[fbase + static_cast<std::size_t>(b)];
            left_cnt += hist_cnt[fbase + static_cast<std::size_t>(b)];
            const int right_cnt = total_cnt - left_cnt;
            if (left_cnt < config_.min_samples_leaf ||
                right_cnt < config_.min_samples_leaf) {
              continue;
            }
            const double right_sum = total_sum - left_sum;
            const double gain = left_sum * left_sum / left_cnt +
                                right_sum * right_sum / right_cnt - parent_score;
            if (gain > best[s].gain + 1e-12) {
              best[s] = Split{static_cast<int>(j), b, gain};
            }
          }
        }
      }

      // Materialize splits.
      std::vector<int> next_frontier;
      std::vector<std::uint8_t> has_split(tree.nodes.size(), 0);
      for (std::size_t s = 0; s < slots; ++s) {
        if (best[s].feature < 0) continue;
        const int node_id = frontier[s];
        const int left = static_cast<int>(tree.nodes.size());
        const int right = left + 1;
        {
          // Scoped: the push_backs below may reallocate tree.nodes and
          // would dangle this reference (caught by TSan as use-after-free).
          Node& node = tree.nodes[static_cast<std::size_t>(node_id)];
          node.feature = best[s].feature;
          const auto& c = cuts[static_cast<std::size_t>(best[s].feature)];
          // Bin b covers values <= c[b] (last bin unbounded).
          node.threshold = best[s].bin < static_cast<int>(c.size())
                               ? c[static_cast<std::size_t>(best[s].bin)]
                               : std::numeric_limits<float>::max();
          node.left = left;
          node.right = right;
        }
        tree.nodes.push_back(Node{});
        tree.nodes.push_back(Node{});
        next_frontier.push_back(left);
        next_frontier.push_back(right);
        has_split.resize(tree.nodes.size(), 0);
        has_split[static_cast<std::size_t>(node_id)] = 1;
      }
      if (next_frontier.empty()) break;
      // Reassign samples to children (row-independent -> parallel).
      util::parallel_for(n, kRowsPerChunk, [&](std::size_t i) {
        const int node = node_of[i];
        if (node < 0 || static_cast<std::size_t>(node) >= has_split.size() ||
            !has_split[static_cast<std::size_t>(node)]) {
          return;
        }
        const Node& nd = tree.nodes[static_cast<std::size_t>(node)];
        const float v = x.at(i, static_cast<std::size_t>(nd.feature));
        node_of[i] = v <= nd.threshold ? nd.left : nd.right;
      });
      frontier = std::move(next_frontier);
    }

    // Leaf values: mean residual of in-bag samples, with shrinkage.
    const std::size_t n_nodes = tree.nodes.size();
    sum.assign(n_nodes, 0.0);
    cnt.assign(n_nodes, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const int node = node_of[i];
      if (node < 0) continue;
      sum[static_cast<std::size_t>(node)] += residual[i];
      ++cnt[static_cast<std::size_t>(node)];
    }
    for (std::size_t k = 0; k < n_nodes; ++k) {
      Node& nd = tree.nodes[k];
      if (nd.feature >= 0) continue;
      nd.value = cnt[k] > 0
                     ? config_.learning_rate * sum[k] / static_cast<double>(cnt[k])
                     : 0.0;
    }

    // Update residuals with this tree (all rows, including out-of-bag).
    // Trees themselves are inherently sequential — boosting fits each tree
    // to the previous trees' residuals — so within-tree row loops are the
    // parallel axis here. Histogram accumulation above stays serial: its
    // float adds would re-associate under chunking, and we keep training
    // numerics bit-identical to the original serial implementation.
    util::parallel_for(n, kRowsPerChunk, [&](std::size_t i) {
      residual[i] -= tree.predict(x.row(i));
    });
    trees_.push_back(std::move(tree));
  }
  rebuild_forest();
  static obs::Counter* trees_trained =
      &obs::Registry::global().counter("atlas_ml_gbdt_trees_trained_total");
  trees_trained->inc(static_cast<std::uint64_t>(trees_.size()));
}

void GbdtRegressor::rebuild_forest() {
  forest_ = Forest{};
  std::size_t total = 0;
  for (const Tree& t : trees_) total += t.nodes.size();
  forest_.feature.reserve(total);
  forest_.threshold.reserve(total);
  forest_.left.reserve(total);
  forest_.right.reserve(total);
  forest_.value.reserve(total);
  forest_.roots.reserve(trees_.size());
  forest_.depth.reserve(trees_.size());
  for (const Tree& t : trees_) {
    const std::int32_t base = static_cast<std::int32_t>(forest_.feature.size());
    forest_.roots.push_back(base);
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      const Node& n = t.nodes[i];
      const std::int32_t self = base + static_cast<std::int32_t>(i);
      if (n.feature < 0) {
        forest_.feature.push_back(0);
        forest_.threshold.push_back(std::numeric_limits<float>::infinity());
        forest_.left.push_back(self);
        forest_.right.push_back(self);
      } else {
        forest_.feature.push_back(n.feature);
        forest_.threshold.push_back(n.threshold);
        forest_.left.push_back(base + n.left);
        forest_.right.push_back(base + n.right);
      }
      forest_.value.push_back(n.value);
    }
    // Steps needed so every row reaches its leaf: the tree's max node depth.
    std::vector<std::int32_t> node_depth(t.nodes.size(), 0);
    std::int32_t max_depth = 0;
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      const Node& n = t.nodes[i];
      if (n.feature < 0) continue;
      // Children are always appended after their parent, so one forward
      // pass assigns depths top-down.
      node_depth[static_cast<std::size_t>(n.left)] = node_depth[i] + 1;
      node_depth[static_cast<std::size_t>(n.right)] = node_depth[i] + 1;
      if (node_depth[i] + 1 > max_depth) max_depth = node_depth[i] + 1;
    }
    forest_.depth.push_back(max_depth);
  }
}

double GbdtRegressor::predict_row(const float* features) const {
  double out = base_;
  for (const Tree& t : trees_) out += t.predict(features);
  return out;
}

void GbdtRegressor::predict_rows(const float* rows, std::size_t n,
                                 std::size_t stride, double* out) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = base_;
  constexpr std::size_t kBlock = 64;
  std::int32_t idx[kBlock];
  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t bn = std::min(kBlock, n - b0);
    const float* block = rows + b0 * stride;
    for (std::size_t t = 0; t < forest_.roots.size(); ++t) {
      const std::int32_t root = forest_.roots[t];
      for (std::size_t i = 0; i < bn; ++i) idx[i] = root;
      for (std::int32_t lvl = 0; lvl < forest_.depth[t]; ++lvl) {
        for (std::size_t i = 0; i < bn; ++i) {
          const std::int32_t id = idx[i];
          const float fv =
              block[i * stride + static_cast<std::size_t>(forest_.feature[id])];
          // Arithmetic select, not ?: — GCC kept the ternary as a
          // data-dependent jump. The mask is all-ones when the row goes
          // left; NaN compares false and goes right, as in predict_row.
          const std::int32_t l = forest_.left[id];
          const std::int32_t r = forest_.right[id];
          idx[i] = r ^ ((l ^ r) & -static_cast<std::int32_t>(
                                      fv <= forest_.threshold[id]));
        }
      }
      for (std::size_t i = 0; i < bn; ++i) {
        out[b0 + i] += forest_.value[idx[i]];
      }
    }
  }
}

void GbdtRegressor::save(util::ByteWriter& out) const {
  out.header("GBDT", 1);
  out.u64(num_features_);
  out.f64(base_);
  out.u64(trees_.size());
  for (const Tree& t : trees_) {
    out.u64(t.nodes.size());
    for (const Node& n : t.nodes) {
      out.i64(n.feature);
      out.f32(n.threshold);
      out.i64(n.left);
      out.i64(n.right);
      out.f64(n.value);
    }
  }
}

GbdtRegressor GbdtRegressor::load(util::ByteReader& in) {
  in.header("GBDT");
  GbdtRegressor m;
  m.num_features_ = in.u64();
  m.base_ = in.f64();
  // Node fields index the feature rows and the forest arrays unchecked at
  // predict time, and the artifact may come from an admin LoadModel: check
  // every split here. Children strictly after their parent also rule out
  // cycles, so every walk reaches a leaf.
  const auto read_int = [](util::ByteReader& r) {
    const std::int64_t v = r.i64();
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      throw util::SerializeError("gbdt: node field out of range");
    }
    return static_cast<int>(v);
  };
  // Encoded sizes: a node is three i64, an f32 and an f64; a tree is its
  // node count plus at least one node.
  constexpr std::size_t kNodeBytes = 3 * 8 + 4 + 8;
  m.trees_ = in.vector<Tree>(8 + kNodeBytes, [&](util::ByteReader& r) {
    Tree t;
    t.nodes = r.vector<Node>(kNodeBytes, [&](util::ByteReader& nr) {
      Node n;
      n.feature = read_int(nr);
      n.threshold = nr.f32();
      n.left = read_int(nr);
      n.right = read_int(nr);
      n.value = nr.f64();
      return n;
    });
    if (t.nodes.empty()) throw util::SerializeError("gbdt: empty tree");
    const std::size_t size = t.nodes.size();
    for (std::size_t i = 0; i < size; ++i) {
      const Node& n = t.nodes[i];
      if (n.feature == -1) continue;
      const auto later_node = [&](int c) {
        return c > 0 && static_cast<std::size_t>(c) > i &&
               static_cast<std::size_t>(c) < size;
      };
      if (n.feature < 0 ||
          static_cast<std::size_t>(n.feature) >= m.num_features_ ||
          !later_node(n.left) || !later_node(n.right)) {
        throw util::SerializeError("gbdt: malformed split at node " +
                                   std::to_string(i));
      }
    }
    return t;
  });
  m.rebuild_forest();
  return m;
}

}  // namespace atlas::ml
