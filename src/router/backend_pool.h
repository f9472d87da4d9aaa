// Backend membership, liveness and placement state for atlas_router.
//
// The pool owns the hash ring plus one status entry per configured backend
// and keeps both current from two signals:
//
//   * a **background prober** that round-trips the rich `health` request
//     (bounded by connect/IO timeouts) on a per-backend schedule —
//     `interval_ms` while healthy, exponential backoff up to 5 s while
//     failing. `fail_threshold` consecutive probe failures take a
//     backend out of the ring; the next successful probe puts it back
//     (re-join is instant, not thresholded — a freshly
//     restarted backend should start taking its arcs again immediately). A
//     backend whose health report says `draining` leaves the ring too but
//     keeps its state distinct from dead, so operators can tell a rolling
//     restart from an outage.
//   * **data-path reports**: a connection thread that hits a transport
//     error forwarding to a backend calls report_failure, which removes it
//     from the ring immediately — in-flight requests fail over to the ring
//     successor without waiting out a probe cycle — and the prober brings
//     it back when it answers again.
//
// The prober also ingests each backend's model list, maintaining the
// model -> Liberty-content-hash map the router mixes into placement keys:
// routing by (netlist hash, library hash) — the backends' own design-cache
// key — means two model names sharing a substrate share one shard's parsed
// designs instead of duplicating them.
//
// All state is guarded by one mutex; probe I/O runs unlocked.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "router/hash_ring.h"
#include "router/hot_keys.h"
#include "serve/protocol.h"

namespace atlas::router {

/// One backend endpoint: TCP ("host:port") or Unix-domain ("unix:<path>").
/// `id` is the canonical spelling used on the ring, in metrics labels and
/// in admin fan-out replies.
struct BackendAddress {
  std::string id;
  std::string host;
  int port = -1;
  std::string unix_path;

  bool is_unix() const { return !unix_path.empty(); }
};

/// Parse "host:port" or "unix:/path/to.sock"; throws std::runtime_error on
/// anything else.
BackendAddress parse_backend(const std::string& spec);

/// Parse a comma-separated backend list, rejecting duplicates.
std::vector<BackendAddress> parse_backend_list(const std::string& csv);

struct ProbeConfig {
  /// Steady-state probe period per healthy backend.
  int interval_ms = 500;
  /// Connect + per-IO bound for one probe round-trip.
  int timeout_ms = 1000;
  /// Consecutive probe failures before a backend leaves the ring (data-path
  /// failures bypass this and evict immediately).
  int fail_threshold = 2;
  /// Virtual nodes per backend on the ring.
  std::size_t vnodes = 64;
};

/// Load-aware routing policy knobs (hot-key replication + overload
/// avoidance). Replication widens placement for the hottest keys only:
/// cold keys keep single-owner consistent hashing, so fleet-wide cache
/// duplication stays bounded by `hot_top_k * (replicas - 1)` designs.
struct RoutingConfig {
  /// Replication factor for hot placement keys: the first `replicas`
  /// distinct shards of the key's preference chain are all eligible
  /// targets. 1 disables replication (pure consistent hashing).
  std::size_t replicas = 1;
  /// At most this many keys are treated as hot at once.
  std::size_t hot_top_k = 8;
  /// Decayed request count a key must accumulate before promotion —
  /// guards against replicating (and thus cache-duplicating) keys that
  /// merely lead a cold tracker.
  std::uint64_t hot_min_requests = 16;
  /// A fresh wait-dominated load report at/above this depth marks the
  /// shard overloaded: eligible replicas rank behind every non-overloaded
  /// one until a newer report clears it.
  std::uint64_t overload_load = 8;
};

enum class BackendState { kUp, kDown, kDraining };
const char* backend_state_name(BackendState state);

/// Point-in-time per-backend view (for stats text and tests).
struct BackendStatus {
  BackendAddress address;
  BackendState state = BackendState::kDown;
  /// Last successful probe's report (zeroed until one succeeds).
  serve::HealthResponse health;
  std::uint64_t probes_ok = 0;
  std::uint64_t probes_failed = 0;
  int consecutive_failures = 0;
  bool in_ring = false;
  /// Freshest known queued + in-flight depth (piggybacked on data-path
  /// replies, refreshed by probes) and whether it is current — false from
  /// the first failed probe or data-path error until the next signal.
  std::uint64_t load = 0;
  bool load_fresh = false;
  /// Last load report was wait-dominated past RoutingConfig::overload_load
  /// (or the shard answered kOverloaded).
  bool overloaded = false;
};

/// One replica-eligible shard as the routing policy sees it.
struct RouteCandidate {
  std::string id;
  /// Position in the key's preference chain (0 = owner).
  std::size_t chain_pos = 0;
  std::uint64_t load = 0;
  bool load_fresh = false;
  bool overloaded = false;
};

/// Deterministic selection order among eligible replicas: non-overloaded
/// before overloaded, fresh depth before stale, lower fresh depth first,
/// then chain position. The final tie-break is what keeps cache warmth
/// stable — equal-load replicas always resolve to the earliest chain
/// position (the owner), so an idle fleet routes exactly like single-owner
/// consistent hashing instead of oscillating between replicas. Pure
/// (sorts its argument, touches no pool state) so tests pin the order.
std::vector<RouteCandidate> order_candidates(
    std::vector<RouteCandidate> candidates);

class BackendPool {
 public:
  BackendPool(std::vector<BackendAddress> backends, ProbeConfig config,
              RoutingConfig routing = {});
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Run one synchronous probe sweep (so the ring and model map are
  /// populated before the first request routes), then start the prober.
  void start();
  void stop();

  /// Failover preference chain for `key`: the owner shard first, then ring
  /// successors, live backends only. Empty when every backend is out.
  std::vector<std::string> route(std::uint64_t key) const;

  /// Load-aware variant of route(): records `key` in the hot-key tracker,
  /// and when the key is hot reorders the first min(replicas, chain)
  /// entries by order_candidates() — freshest-lowest depth first, warmth-
  /// stable ties — leaving the rest of the chain as failover candidates.
  /// Cold keys (and replicas <= 1) return the plain preference chain, so
  /// the replica set is always a prefix of the failover chain: promotion
  /// only ever *adds* warm shards, and failing over from any replica lands
  /// on another replica or the successor that would inherit the key's arc.
  ///
  /// With `open_forward`, the returned chain's first backend is also
  /// charged one open forward, in the same critical section as the pick,
  /// until forward_done(). A replica ranks by the larger of its reported
  /// depth and its open forwards, so hot requests routed between two load
  /// reports spread over the replicas instead of all taking the same stale
  /// minimum.
  std::vector<std::string> route_load_aware(std::uint64_t key,
                                            bool open_forward = false);
  /// Close one open forward charged by route_load_aware(key, true).
  void forward_done(const std::string& id);

  /// Ingest a data-path load report piggybacked on a reply from `id`:
  /// request-fresh queued + in-flight depth, and whether the shard's time
  /// is going to waiting rather than compute. Marks the depth fresh and
  /// recomputes the overload flag against RoutingConfig::overload_load.
  void note_load(const std::string& id, std::uint64_t load,
                 bool wait_dominated);
  /// Backend answered kOverloaded: rank it last among eligible replicas
  /// until a newer load report or successful probe clears the mark. Unlike
  /// report_failure this does NOT evict — the shard is healthy, just busy.
  void note_overloaded(const std::string& id);

  /// Hot-key tracker views (stats text and tests); is_hot_key does not
  /// record, so probing it is free of routing side effects.
  std::size_t hot_keys_tracked() const;
  bool is_hot_key(std::uint64_t key) const;
  const RoutingConfig& routing() const { return routing_; }

  std::optional<BackendAddress> address(const std::string& id) const;

  /// Every configured backend in configuration order — the admin fan-out
  /// target set, regardless of liveness (a dead shard is reported
  /// unreachable, not silently skipped).
  std::vector<BackendAddress> all_backends() const;

  /// Data-path transport failure: evict from the ring now.
  void report_failure(const std::string& id);
  /// Backend answered kShuttingDown: it is draining — stop routing new
  /// keys there but keep it distinct from dead.
  void report_draining(const std::string& id);

  std::vector<BackendStatus> snapshot() const;
  std::size_t ring_size() const;
  /// Bumps on every ring membership change (join/leave/death).
  std::uint64_t ring_generation() const;

  /// Liberty content hash bound to `model` (learned from backend model
  /// lists); 0 when unknown — the router falls back to hashing the model
  /// name, which partitions correctly but cannot share designs across
  /// model names on one substrate.
  std::uint64_t library_hash_for(const std::string& model) const;

  /// Tier-wide health: sums of cache occupancy and queue depth over live
  /// backends, max of registry generations. `draining` is left false (the
  /// router overlays its own drain state).
  serve::HealthResponse aggregate_health() const;

  /// Probe every backend once and wait for all results (start() prelude;
  /// `health` and admin fan-out call it to refresh the fleet view). Probes
  /// run concurrently — one thread per backend — so the wall-clock bound is
  /// a single probe timeout, not timeout x dead backends.
  void probe_all_now();

 private:
  struct Entry {
    BackendAddress address;
    BackendState state = BackendState::kDown;
    serve::HealthResponse health;
    std::uint64_t probes_ok = 0;
    std::uint64_t probes_failed = 0;
    int consecutive_failures = 0;
    int backoff_ms = 0;
    std::chrono::steady_clock::time_point next_probe_at;
    /// Freshest queued + in-flight depth and its trust bit (see
    /// BackendStatus). Same count as health.queue_depth, but that holds
    /// the last *successful probe*'s value — this is refreshed by every
    /// data-path reply too.
    std::uint64_t load = 0;
    bool load_fresh = false;
    bool overloaded = false;
    /// Forwards this router has sent here and not yet seen answered.
    std::uint64_t open_forwards = 0;
  };
  /// Outcome of one unlocked probe round-trip.
  struct ProbeResult {
    bool ok = false;
    serve::HealthResponse health;
    std::vector<serve::ModelInfo> models;
    std::uint64_t latency_us = 0;
  };

  void prober_loop();
  ProbeResult probe_backend(const BackendAddress& address) const;
  /// Caller must hold mu_. Applies a probe outcome to `e`, updating the
  /// ring and gauges on state transitions.
  void apply_probe_result(Entry& e, const ProbeResult& result);
  /// Caller must hold mu_.
  void set_in_ring(Entry& e, bool in_ring);
  /// Caller must hold mu_.
  void publish_gauges() const;

  const ProbeConfig config_;
  const RoutingConfig routing_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<Entry> entries_;
  HashRing ring_;
  HotKeyTracker hot_keys_;  // guarded by mu_
  std::uint64_t ring_generation_ = 0;
  std::map<std::string, std::uint64_t> model_library_hash_;
  std::thread prober_;
};

}  // namespace atlas::router
