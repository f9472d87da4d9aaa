#include "serve/feature_cache.h"

#include "obs/metrics.h"
#include "util/hash.h"

namespace atlas::serve {

namespace {

// Process-wide cache gauges (point-in-time view of the daemon's one cache;
// in a multi-cache test process the last mutator wins, which is fine for
// scraping). Counters live in FeatureCacheStats per instance; these mirror
// them so `metrics` exports the cache state without a custom renderer.
struct CacheGauges {
  obs::Gauge& design_hits;
  obs::Gauge& design_misses;
  obs::Gauge& design_evictions;
  obs::Gauge& embedding_hits;
  obs::Gauge& embedding_misses;
  obs::Gauge& embedding_drops;
  obs::Gauge& designs;
  obs::Gauge& embedding_bytes;
  obs::Gauge& total_bytes;
};

CacheGauges& cache_gauges() {
  obs::Registry& reg = obs::Registry::global();
  static CacheGauges* g = new CacheGauges{
      reg.gauge("atlas_serve_cache_design_hits"),
      reg.gauge("atlas_serve_cache_design_misses"),
      reg.gauge("atlas_serve_cache_design_evictions"),
      reg.gauge("atlas_serve_cache_embedding_hits"),
      reg.gauge("atlas_serve_cache_embedding_misses"),
      reg.gauge("atlas_serve_cache_embedding_drops"),
      reg.gauge("atlas_serve_cache_designs"),
      reg.gauge("atlas_serve_cache_embedding_bytes"),
      reg.gauge("atlas_serve_cache_total_bytes")};
  return *g;
}

std::size_t bytes_of(const std::shared_ptr<const core::Prediction>& p) {
  return p ? approx_prediction_bytes(*p) : 0;
}

}  // namespace

std::uint64_t design_cache_key(std::uint64_t netlist_hash,
                               std::uint64_t library_hash) {
  return util::hash_mix(netlist_hash, library_hash);
}

std::size_t approx_design_bytes(const DesignArtifacts& d) {
  // Rough per-object footprints (names, pin vectors, adjacency); exactness
  // doesn't matter — the budget only needs eviction weights on the right
  // scale, and the same formula is applied to every entry.
  std::size_t b = sizeof(DesignArtifacts);
  b += d.gate.num_cells() * 96 + d.gate.num_nets() * 64;
  for (const graph::SubmoduleGraph& g : d.graphs) {
    b += sizeof(graph::SubmoduleGraph);
    b += g.cells.size() * (sizeof(netlist::CellInstId) +
                           sizeof(netlist::NetId) + sizeof(int));
    b += g.edges.size() * sizeof(g.edges[0]);
    b += g.static_features.size() * sizeof(float);
  }
  return b;
}

std::size_t approx_prediction_bytes(const core::Prediction& p) {
  return sizeof(core::Prediction) +
         (p.design.size() + p.submodule.size()) * sizeof(power::GroupPower);
}

FeatureCache::FeatureCache(std::size_t max_designs,
                           std::size_t max_predictions_per_design,
                           std::size_t max_bytes)
    : max_designs_(max_designs < 1 ? 1 : max_designs),
      max_predictions_per_design_(
          max_predictions_per_design < 1 ? 1 : max_predictions_per_design),
      max_bytes_(max_bytes) {}

void FeatureCache::publish_gauges() const {
  CacheGauges& g = cache_gauges();
  g.design_hits.set(static_cast<std::int64_t>(stats_.design_hits));
  g.design_misses.set(static_cast<std::int64_t>(stats_.design_misses));
  g.design_evictions.set(static_cast<std::int64_t>(stats_.design_evictions));
  g.embedding_hits.set(static_cast<std::int64_t>(stats_.embedding_hits));
  g.embedding_misses.set(static_cast<std::int64_t>(stats_.embedding_misses));
  g.embedding_drops.set(static_cast<std::int64_t>(stats_.embedding_drops));
  g.designs.set(static_cast<std::int64_t>(entries_.size()));
  g.embedding_bytes.set(static_cast<std::int64_t>(prediction_bytes_));
  g.total_bytes.set(static_cast<std::int64_t>(design_bytes_ + prediction_bytes_));
}

void FeatureCache::touch(std::uint64_t key, Entry& e) {
  lru_.erase(e.lru_pos);
  lru_.push_front(key);
  e.lru_pos = lru_.begin();
}

void FeatureCache::evict_if_needed() {
  // Count bound: strict, down to max_designs_. Byte bound: weigh each
  // entry's design footprint plus its predictions, but never evict the MRU
  // entry — a single over-budget design must still be servable.
  while (entries_.size() > max_designs_ ||
         (max_bytes_ > 0 && design_bytes_ + prediction_bytes_ > max_bytes_ &&
          entries_.size() > 1)) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    for (const auto& [k, pred] : it->second.predictions) {
      prediction_bytes_ -= bytes_of(pred);
    }
    design_bytes_ -= it->second.design_bytes;
    entries_.erase(it);
    ++stats_.design_evictions;
  }
}

std::shared_ptr<const DesignArtifacts> FeatureCache::find_design(
    std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.design_misses;
    publish_gauges();
    return nullptr;
  }
  ++stats_.design_hits;
  touch(key, it->second);
  publish_gauges();
  return it->second.design;
}

std::shared_ptr<const DesignArtifacts> FeatureCache::put_design(
    std::uint64_t key, std::shared_ptr<const DesignArtifacts> d) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A racing request inserted first: keep its entry (first insert wins,
    // content is identical by determinism) and hand the winner back so the
    // loser serves what the cache retained.
    if (it->second.design) {
      touch(key, it->second);
      publish_gauges();
      return it->second.design;
    }
    const std::size_t weight = d ? approx_design_bytes(*d) : 0;
    design_bytes_ -= it->second.design_bytes;
    it->second.design = std::move(d);
    it->second.design_bytes = weight;
    design_bytes_ += weight;
    touch(key, it->second);
    evict_if_needed();
    publish_gauges();
    return it->second.design;
  }
  const std::size_t weight = d ? approx_design_bytes(*d) : 0;
  lru_.push_front(key);
  Entry e;
  e.design = std::move(d);
  e.design_bytes = weight;
  e.lru_pos = lru_.begin();
  auto [ins, inserted] = entries_.emplace(key, std::move(e));
  (void)inserted;
  design_bytes_ += weight;
  std::shared_ptr<const DesignArtifacts> winner = ins->second.design;
  evict_if_needed();
  publish_gauges();
  return winner;
}

std::shared_ptr<const core::Prediction> FeatureCache::find_prediction(
    std::uint64_t design_key, const PredictionKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(design_key);
  if (it == entries_.end()) {
    ++stats_.embedding_misses;
    publish_gauges();
    return nullptr;
  }
  const auto pit = it->second.predictions.find(key);
  if (pit == it->second.predictions.end()) {
    ++stats_.embedding_misses;
    publish_gauges();
    return nullptr;
  }
  ++stats_.embedding_hits;
  touch(design_key, it->second);
  publish_gauges();
  return pit->second;
}

std::shared_ptr<const core::Prediction> FeatureCache::put_prediction(
    std::uint64_t design_key, const PredictionKey& key,
    std::shared_ptr<const core::Prediction> pred) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(design_key);
  // The design entry may have been evicted between the handler's lookup and
  // this insert; the prediction would be unreachable without its design,
  // so it cannot be cached — but the lost work is counted, never silent
  // (cache effectiveness must stay observable), and the caller's freshly
  // computed prediction is handed straight back so the losing request
  // still serves it.
  if (it == entries_.end()) {
    ++stats_.embedding_drops;
    publish_gauges();
    return pred;
  }
  Entry& e = it->second;
  // Inserting a result is a use: make the design MRU so the byte-budget
  // eviction below can never evict the entry that was just extended.
  touch(design_key, e);
  const auto pit = e.predictions.find(key);
  if (pit != e.predictions.end()) {
    // A racing request inserted the same key first. First insert wins: keep
    // the existing entry (byte accounting untouched) and return it so both
    // racers serve the pointer the cache holds.
    publish_gauges();
    return pit->second;
  }
  prediction_bytes_ += bytes_of(pred);
  std::shared_ptr<const core::Prediction> winner = pred;
  e.predictions.emplace(key, std::move(pred));
  e.prediction_order.push_back(key);
  while (e.predictions.size() > max_predictions_per_design_) {
    const auto victim = e.predictions.find(e.prediction_order.front());
    prediction_bytes_ -= bytes_of(victim->second);
    e.predictions.erase(victim);
    e.prediction_order.pop_front();
  }
  evict_if_needed();
  publish_gauges();
  return winner;
}

bool FeatureCache::peek_design(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.design != nullptr;
}

bool FeatureCache::peek_prediction(std::uint64_t design_key,
                                   const PredictionKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(design_key);
  if (it == entries_.end()) return false;
  return it->second.predictions.count(key) != 0;
}

FeatureCacheStats FeatureCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t FeatureCache::num_designs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t FeatureCache::prediction_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prediction_bytes_;
}

std::size_t FeatureCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return design_bytes_ + prediction_bytes_;
}

}  // namespace atlas::serve
