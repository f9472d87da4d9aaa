// LRU cache for per-design prediction artifacts and finished predictions.
//
// Two layers, keyed off the FNV-1a hash of the request's Verilog text mixed
// with the content hash of the Liberty library it was parsed against (see
// design_cache_key) — parsed netlists and graph features depend on the
// library's cell ids, capacitances and energy LUTs, so two models bound to
// different substrates must never share a design entry even for identical
// Verilog text. A by-hash stream brings that FNV-1a from the client; for a
// text upload the server takes it from a util::NetlistHashMemo, which
// computes it once per distinct text, so both name the same entry:
//
//   design layer      (netlist hash, library hash) -> parsed netlist +
//                     sub-module graphs (the per-design preprocessing every
//                     request would otherwise repeat);
//   result layer      (model, generation, workload, cycles, trace hash) ->
//                     the core::Prediction the GBDT heads produced, nested
//                     under the design entry so evicting a design drops its
//                     results too. For streamed workloads the trace hash
//                     pins the *content* of the client-supplied toggle
//                     trace — two different traces under the same workload
//                     name can never alias. The registry generation
//                     invalidates results across a model reload under the
//                     same name. The layer keeps its older "embedding" name
//                     where clients and dashboards read it:
//                     FeatureCacheStats, HealthResponse, the
//                     atlas_serve_cache_embedding_* gauges, the
//                     kCacheHitEmbeddings wire flag and --cache-embeddings.
//
// A prediction depends on nothing but its key (the §4b determinism
// contract makes it bit-identical every time), so a warm hit skips netlist
// parsing, graph building, workload simulation, the encoder AND the GBDT
// heads: the request only serializes the cached rows. The cached
// prediction always holds the per-sub-module rows, whatever the request
// that computed it asked for; each reply picks what its own request wants.
// Entries are immutable once inserted (shared_ptr<const>), so handlers
// running on pool threads read them without further locking; the cache
// mutex only guards the index. Concurrent misses on the same key may both
// compute and insert — the first insert wins (results are identical by
// determinism), and put_* returns the winning entry so every racer serves
// exactly what the cache retained.
//
// Eviction is cost-aware, not just count-based: every entry is weighed by
// its design footprint plus the byte size of its cached predictions, and
// the LRU tail is evicted while either the design count exceeds
// `max_designs` or the total weight exceeds `max_bytes` — so one huge
// design cannot pin memory that many cheap hot designs would use better.
// The most recently used entry is never evicted by the byte budget (a
// single over-budget design must still be servable).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "atlas/model.h"
#include "graph/submodule_graph.h"
#include "netlist/netlist.h"

namespace atlas::serve {

/// Cached per-design preprocessing output.
struct DesignArtifacts {
  netlist::Netlist gate;
  std::vector<graph::SubmoduleGraph> graphs;
  /// Sub-modules created by the structural fallback splitter (0 when the
  /// netlist arrived with sub-module attributes).
  int structural_submodules = 0;
  /// The library `gate` was parsed against. Netlist keeps a raw reference
  /// to its library, so the cache entry must co-own it: a cached design may
  /// outlive the model (and library) binding that created it once models
  /// are unloadable at runtime.
  std::shared_ptr<const liberty::Library> library;
};

/// Key for the design-artifact layer: netlist text hash mixed with the
/// library content hash, so identical Verilog parsed against different
/// substrates occupies distinct entries.
std::uint64_t design_cache_key(std::uint64_t netlist_hash,
                               std::uint64_t library_hash);

/// Approximate resident size of a design entry (netlist + graphs), used to
/// weigh eviction victims alongside their cached predictions.
std::size_t approx_design_bytes(const DesignArtifacts& d);

/// Approximate resident size of a cached prediction: the object plus its
/// per-cycle design and per-sub-module rows. The result layer's eviction
/// weight.
std::size_t approx_prediction_bytes(const core::Prediction& p);

struct PredictionKey {
  std::string model;
  std::string workload;
  std::int32_t cycles = 0;
  /// Content hash of an externally supplied toggle trace; 0 for the
  /// built-in synthetic workloads (whose name + cycles pin the stimulus).
  std::uint64_t trace_hash = 0;
  /// ModelEntry::generation of the artifact that computed the prediction.
  /// A reload under the same name bumps it, so stale results from the
  /// replaced artifact can never satisfy a lookup for the new one.
  std::uint64_t generation = 0;

  bool operator<(const PredictionKey& o) const {
    return std::tie(model, workload, cycles, trace_hash, generation) <
           std::tie(o.model, o.workload, o.cycles, o.trace_hash, o.generation);
  }
};

struct FeatureCacheStats {
  std::uint64_t design_hits = 0;
  std::uint64_t design_misses = 0;
  std::uint64_t embedding_hits = 0;
  std::uint64_t embedding_misses = 0;
  std::uint64_t design_evictions = 0;
  /// Freshly computed predictions that could not be cached because their
  /// design entry was evicted between the handler's lookup and the insert.
  /// The inserting request still serves them (put_prediction returns the
  /// caller's pointer), but future requests must recompute — nonzero values
  /// mean encoder work is being repeated; size the cache up.
  std::uint64_t embedding_drops = 0;
};

class FeatureCache {
 public:
  /// `max_designs` bounds the design layer (LRU); `max_predictions_per_design`
  /// bounds each entry's result map (oldest-inserted evicted first);
  /// `max_bytes` bounds the summed approximate weight of designs +
  /// predictions (0 = unlimited).
  explicit FeatureCache(std::size_t max_designs = 16,
                        std::size_t max_predictions_per_design = 8,
                        std::size_t max_bytes = 0);

  std::shared_ptr<const DesignArtifacts> find_design(std::uint64_t key);
  /// Insert `d`, returning the entry that will serve future lookups. When a
  /// concurrent request already populated the key (both computed after
  /// racing on the same miss), the first insert wins and the loser gets the
  /// winner's pointer back — identical content by determinism, but callers
  /// must serve the returned entry so what they answer is what the cache
  /// holds.
  std::shared_ptr<const DesignArtifacts> put_design(
      std::uint64_t key, std::shared_ptr<const DesignArtifacts> d);

  std::shared_ptr<const core::Prediction> find_prediction(
      std::uint64_t design_key, const PredictionKey& key);
  /// Insert a freshly computed prediction, returning the winning entry.
  /// Three cases: (a) normal insert — returns `pred`; (b) a racing request
  /// inserted the same key first — first insert wins, returns the cached
  /// pointer and `pred` is discarded; (c) the design entry was evicted
  /// between the handler's lookup and this insert — the prediction cannot
  /// be cached (counted in embedding_drops), but `pred` itself is returned
  /// so the losing request still serves the result it just paid for
  /// instead of failing or recomputing.
  std::shared_ptr<const core::Prediction> put_prediction(
      std::uint64_t design_key, const PredictionKey& key,
      std::shared_ptr<const core::Prediction> pred);

  /// Non-mutating presence probes for admission control (the overload shed
  /// path classifies a request warm/cold *before* deciding whether to queue
  /// it): no LRU touch, no hit/miss accounting — a shed decision must not
  /// perturb eviction order or the cache's observability.
  bool peek_design(std::uint64_t key) const;
  bool peek_prediction(std::uint64_t design_key,
                       const PredictionKey& key) const;

  FeatureCacheStats stats() const;
  std::size_t num_designs() const;
  /// Bytes held by cached predictions (all designs).
  std::size_t prediction_bytes() const;
  /// Approximate bytes held by the whole cache (designs + predictions) —
  /// the quantity the `max_bytes` budget bounds.
  std::size_t total_bytes() const;

 private:
  struct Entry {
    std::shared_ptr<const DesignArtifacts> design;
    std::size_t design_bytes = 0;
    // Insertion-ordered for simple FIFO eviction within one design.
    std::map<PredictionKey, std::shared_ptr<const core::Prediction>>
        predictions;
    std::list<PredictionKey> prediction_order;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  // Caller must hold mu_. Moves `key` to the front of the LRU list.
  void touch(std::uint64_t key, Entry& e);
  // Caller must hold mu_. Evicts the LRU tail while the design count is
  // over max_designs_ or the byte weight is over max_bytes_ (never the
  // MRU entry for the byte budget).
  void evict_if_needed();
  // Caller must hold mu_. Mirrors stats_/occupancy onto the global
  // atlas_serve_cache_* gauges after every mutation.
  void publish_gauges() const;

  const std::size_t max_designs_;
  const std::size_t max_predictions_per_design_;
  const std::size_t max_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  FeatureCacheStats stats_;
  std::size_t prediction_bytes_ = 0;  // prediction bytes across all entries
  std::size_t design_bytes_ = 0;     // approx bytes of design artifacts
};

}  // namespace atlas::serve
