// atlas_router: a sharding front tier speaking the same ATSP protocol as
// atlas_serve, so every existing client (atlas_client, serve::Client,
// servebench) points at a router unchanged.
//
// Request handling splits three ways:
//
//   * **Routed data path** (Predict, StreamBegin/Chunk/End): the router
//     computes the backends' own design-cache key — design_cache_key(netlist
//     content hash, Liberty content hash of the request's model, learned
//     from backend model lists) — and forwards the raw frames to the shard
//     the hash ring owns that key to. One (design, substrate) pair lands on
//     exactly one shard, so N backends hold N disjoint warm feature caches
//     instead of N copies of the same one — except the hottest keys, which
//     (with --replicas > 1) are eligible on the first R shards of their
//     preference chain, picked by freshest-known queue depth with warmth-
//     stable tie-breaking (see RoutingConfig / DESIGN.md §4k). Forwarded
//     predicts set want_queue_depth in the frame's extension block, so the
//     shard attaches its live load to the reply's block; the router reads
//     and clears that LoadReport before relaying, and never touches payload
//     bytes, so client replies stay bit-identical to direct serving.
//     Transport failures and
//     kShuttingDown replies evict the shard from the ring and fail the
//     request over to the ring successor — the shard that inherits the
//     key's arc — transparently to the client; kOverloaded marks the shard
//     busy and tries the next replica (relayed only if every candidate
//     sheds); every other backend Error is authoritative and relayed
//     (kUnknownDesign in particular drives the client's documented
//     full-upload fallback).
//   * **Streamed uploads** are pinned: the whole Begin/Chunk*/End exchange
//     goes to one shard over one upstream connection (backend stream state
//     is per-connection). The router buffers the acked frames — bounded by
//     the declared trace size, which is validated against kMaxStreamBytes
//     at Begin — so a backend dying mid-upload is survivable: the buffered
//     prefix is replayed to the successor and the stream continues.
//   * **Local + fan-out control plane**: Ping, Health (aggregated over
//     live shards), Stats (per-backend table), Metrics (the router
//     process's Prometheus registry; payload selector "fleet" instead
//     fans out to every backend and merges the expositions under
//     per-shard shard="host:port" labels) and Shutdown are answered by
//     the router itself; LoadModel/UnloadModel fan out to every configured
//     backend — models are replicated fleet-wide, designs are sharded —
//     and the reply aggregates per-shard status (any shard failing turns
//     the aggregate into an Error naming exactly which shards diverged).
//     TraceDump (admin-gated) drains the router's own span ring plus every
//     reachable backend's and answers one merged Chrome trace document.
//
// Distributed tracing: a traced Predict/StreamBegin carries its context in
// the frame's extension block. The router adopts it (or — tracing enabled —
// mints a root for context-less clients), runs the request under a
// "router" span, and sets a fresh per-attempt child span
// ("forward:<backend>" / "stream_failover:<backend>") in the forwarded
// frame's block as the backend's parent, so failovers appear in the merged
// timeline as sibling attempts. The client's payload bytes are forwarded
// unchanged on every path.
//
// Threading is serve::Server's, through the same serve::ConnectionHost: one
// accept thread per listener, one thread per client connection. Each
// connection thread owns its upstream sockets (one per backend, lazily
// connected, reused across requests), so the data path shares no mutable
// state across connections — only the BackendPool (internally locked) and
// the obs metrics registry (atomics).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "router/backend_pool.h"
#include "serve/connection_host.h"
#include "serve/protocol.h"
#include "util/hash.h"
#include "util/socket.h"

namespace atlas::router {

/// Endpoints (host, port, unix_path) come from serve::ListenConfig. The
/// per-stream replay buffer (and thus what StreamBegin may declare) is
/// bounded by serve::kMaxStreamBytes, the backends' own cap.
struct RouterConfig : serve::ListenConfig {
  ProbeConfig probe;
  /// Hot-key replication and overload-avoidance policy (see RoutingConfig);
  /// defaults keep replication off (replicas = 1).
  RoutingConfig routing;

  /// Data-path upstream connect bound. IO on an established upstream is
  /// deliberately unbounded: a predict may legitimately compute for a long
  /// time, and a dead backend surfaces as a socket error, not a silent
  /// stall (the kernel detects the close).
  int backend_connect_timeout_ms = 2000;

  /// Honor LoadModel/UnloadModel fan-out. Off by default, mirroring
  /// atlas_serve: admin is an operator capability. The backends enforce
  /// their own flag too — this gate just fails fast at the tier edge.
  bool allow_admin = false;
  bool verbose = false;
};

class Router {
 public:
  Router(RouterConfig config, std::vector<BackendAddress> backends);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind listeners (throws util::SocketError before any thread starts),
  /// probe the fleet once (so the ring is populated), start the prober,
  /// launch accept threads.
  void start();
  /// Stop accepting, close client connections, then stop the prober.
  void stop();

  /// Resolved TCP port after an ephemeral bind; -1 when TCP is disabled.
  int port() const { return host_.port(); }

  bool stop_requested() const { return host_.stop_requested(); }
  void wait_for_stop_request(const std::function<bool()>& poll = {}) {
    host_.wait_for_stop_request(poll);
  }

  /// Membership/liveness state (tests assert on it directly).
  BackendPool& pool() { return *pool_; }

  /// The per-backend table the Stats wire request answers with.
  std::string stats_text() const;
  /// The same table as one JSON object (Stats with mode "json"): the tier
  /// summary fields plus a "backends" array, one object per shard.
  std::string stats_json() const;

 private:
  /// Lazily-connected upstream sockets, one per backend id, owned by a
  /// single connection thread.
  using UpstreamMap = std::map<std::string, util::Socket>;
  /// Streamed-upload relay state (per client connection).
  struct StreamRelay {
    bool active = false;
    std::string backend;             // pinned shard
    std::vector<std::string> chain;  // failover order captured at Begin
    std::size_t chain_pos = 0;
    serve::Frame begin;                // forwarded Begin, for replay
    std::vector<serve::Frame> chunks;  // acked chunks, in order
    /// Trace context adopted at Begin (zero when the stream is untraced);
    /// failover attempts parent their spans — and the Begin replayed to
    /// the successor — under it.
    obs::TraceContext ctx;

    void reset() {
      active = false;
      backend.clear();
      chain.clear();
      chain_pos = 0;
      begin = serve::Frame{};
      chunks.clear();
      chunks.shrink_to_fit();
      ctx = obs::TraceContext{};
    }
  };

  /// Answer one client frame (the ConnectionHost handler): control plane
  /// locally, data path routed over this connection's `upstreams`.
  serve::Frame handle_frame(serve::Frame frame, UpstreamMap& upstreams,
                            StreamRelay& relay);

  /// Borrow (connecting if needed) the upstream socket for `id`; nullptr
  /// when the backend is unknown or unreachable.
  util::Socket* upstream(UpstreamMap& upstreams, const std::string& id);
  /// One raw round-trip to `id`. Returns false on transport failure
  /// (connect/send/recv error, framing corruption, EOF) — the upstream
  /// socket is dropped and the pool told — after which the caller fails
  /// over. A reply frame of any type (including Error) returns true.
  bool forward(UpstreamMap& upstreams, const std::string& id,
               const serve::Frame& request, serve::Frame& response);

  /// The placement key for (netlist hash, model): the shards' own
  /// design_cache_key over the model's Liberty content hash when the prober
  /// has learned it, else over a hash of the model name (correct
  /// partitioning, no cross-model design sharing).
  std::uint64_t placement_key(std::uint64_t netlist_hash,
                              const std::string& model) const;

  /// Predict (keyed, load-aware, with failover) and ListModels (any live
  /// shard). Takes the request by value: its extension is rewritten per
  /// attempt while its payload is forwarded untouched.
  serve::Frame route_predict(UpstreamMap& upstreams, serve::Frame request);
  /// The failover walk Predict, ListModels and StreamBegin share: send
  /// `request` to each backend of `chain` in order until one answers.
  /// Transport failure and kShuttingDown (the shard leaves the ring as
  /// draining) move on to the next candidate; any other reply is returned,
  /// an Error counted against its backend, and `served` (when non-null)
  /// gets that backend's chain index. `traced` gives each attempt a
  /// "forward:<id>" span, set as the forwarded frame's parent. `predict`
  /// adds the keyed-Predict rules: the first candidate's open forward is
  /// closed, load reports are noted and cleared, and kOverloaded fails over
  /// too (relayed only if every candidate sheds). After the whole chain
  /// fails the reply is an Error naming how many candidates were tried.
  serve::Frame forward_along(UpstreamMap& upstreams,
                             const std::vector<std::string>& chain,
                             serve::Frame& request, bool traced, bool predict,
                             std::size_t* served = nullptr);
  serve::Frame handle_stream(UpstreamMap& upstreams, serve::Frame frame,
                             StreamRelay& relay);
  /// Replay the buffered stream prefix (Begin + acked chunks) to `id`.
  /// Returns true when every frame was acked; an authoritative error reply
  /// lands in `error` with `authoritative` = true (relay it, the stream is
  /// dead); transport failure returns false with `authoritative` = false
  /// (try the next candidate).
  bool replay_stream(UpstreamMap& upstreams, const std::string& id,
                     const StreamRelay& relay, serve::Frame& error,
                     bool& authoritative);
  /// Fail the active stream over to the next candidate in its chain,
  /// replaying the buffered prefix. Returns true and repoints
  /// relay.backend on success; on authoritative rejection or chain
  /// exhaustion returns false with the reply to send in `reply`.
  bool failover_stream(UpstreamMap& upstreams, StreamRelay& relay,
                       serve::Frame& reply);

  /// A fresh connection to `addr` for the fan-out control plane, bounded
  /// by backend_connect_timeout_ms and a generous per-IO timeout. Not the
  /// data-path upstreams: admin must reach *every* configured shard,
  /// including ones out of the ring, and a wedged shard must cost a
  /// bounded wait, not a hang. Throws util::SocketError.
  util::Socket admin_connect(const BackendAddress& addr) const;
  serve::Frame admin_fanout(const serve::Frame& frame);
  /// Admin-gated TraceDump: drain the local span ring and every reachable
  /// backend's, answer one merged Chrome trace (kTraceJson). Unreachable or
  /// admin-disabled shards are skipped — a forensic pull should return what
  /// the rest of the fleet has, not fail on the sickest member.
  serve::Frame trace_dump_fanout();
  /// Metrics "fleet" selector: every backend's Prometheus exposition merged
  /// with per-shard shard="<id>" labels, the router's own registry included
  /// as shard="router".
  std::string fleet_metrics();
  serve::HealthResponse health_snapshot() const;

  RouterConfig config_;
  std::unique_ptr<BackendPool> pool_;
  /// text -> FNV-1a for placement: a text routed recently costs one
  /// SipHash-1-3 pass, not a full FNV-1a. The key keeps the FNV-1a bits,
  /// so a text Predict and a by-hash stream of one design still land on
  /// the same shard.
  util::NetlistHashMemo netlist_hashes_;

  /// Declared last so its connection threads are joined before the pool
  /// they route through is destroyed.
  serve::ConnectionHost host_;
};

}  // namespace atlas::router
