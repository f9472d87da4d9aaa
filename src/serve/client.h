// Client library for the atlas_serve protocol.
//
// One Client wraps one connection; requests are synchronous (one frame
// out, one frame in). An Error response from the server is surfaced as a
// thrown ServeError carrying the server's error code, so callers
// distinguish "daemon rejected the request" from transport failures
// (util::SocketError) and framing corruption (ProtocolError).
#pragma once

#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/socket.h"

namespace atlas::serve {

/// The server answered with an Error response.
class ServeError : public std::runtime_error {
 public:
  ServeError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Connection-time knobs. Both default to 0 = block indefinitely, the
/// historical behavior; anything talking to peers it does not control (the
/// router's prober and failover paths, scripts against remote daemons)
/// should set both so a dead or wedged peer costs a bounded wait.
struct ClientOptions {
  /// TCP/UDS handshake bound (ms); expiry throws util::SocketError.
  int connect_timeout_ms = 0;
  /// Per-recv/send bound (ms) on the connected socket. A peer that accepts
  /// but never answers surfaces as util::SocketError("recv timed out").
  int io_timeout_ms = 0;
};

class Client {
 public:
  static Client connect_tcp(const std::string& host, int port,
                            const ClientOptions& options = {});
  static Client connect_unix(const std::string& path,
                             const ClientOptions& options = {});
  /// Wrap a connected socket, keeping its timeouts.
  explicit Client(util::Socket sock) : sock_(std::move(sock)) {}

  /// Re-bound (or clear, with 0) the per-recv/send timeout mid-session —
  /// e.g. a prober that connects with a tight bound but allows a longer
  /// window for an admin fan-out reply.
  void set_io_timeout_ms(int timeout_ms);

  /// Round-trip a ping; throws on any failure.
  void ping();

  /// Rich readiness probe: registry generation, cache occupancy, queue
  /// depth, drain state (see HealthResponse).
  HealthResponse health();

  /// Predict and stream calls originate the distributed trace context:
  /// when the request carries none, the ambient thread context (if any) or
  /// — with tracing enabled — a fresh sampled root is attached, and the
  /// call runs under a "client" span whose id becomes the server side's
  /// parent. `request.ext` travels as the frame's extension block; a
  /// PredictOk reply's timing extension fills has_timing / timing.
  ///
  /// A non-null `load_out` also asks the server to attach its load (queued
  /// + in-flight jobs and whether its time is wait-dominated) to the reply
  /// — the same LoadReport the routing tier uses to keep queue depths
  /// request-fresh. It is filled before a ServeError is thrown (shed
  /// replies carry one too) and reads zeros when the reply has none (a
  /// router clears it before relaying); the response's has_load tells the
  /// two apart. The decoded prediction is the same either way. An ops/debug
  /// aid (`atlas_client predict --show-load`).
  PredictResponse predict(const PredictRequest& request,
                          LoadReport* load_out = nullptr);

  /// Upload a client-supplied toggle trace in chunks and get the prediction
  /// for it: stream_begin / stream_chunk* / stream_end. `trace_bytes` is
  /// VCD text or binary ATDT delta bytes, matching `begin.format`;
  /// `begin.trace_bytes` is filled from it automatically. Throws ServeError
  /// on any server-side rejection (the server discards the partial upload;
  /// this connection remains usable).
  PredictResponse predict_stream(StreamBeginRequest begin,
                                 const std::string& trace_bytes,
                                 std::size_t chunk_bytes = 64 * 1024);

  /// predict_stream with design-by-hash negotiation: first try referencing
  /// the design by the FNV-1a hash of `begin.netlist_verilog` (no netlist
  /// bytes on the wire); if the server answers kUnknownDesign — cold cache,
  /// or an eviction racing the upload — fall back to one full upload, which
  /// re-warms the server for the next call. Other errors propagate. When
  /// `used_hash` is non-null it reports whether the hash path served the
  /// prediction.
  PredictResponse predict_stream_cached(const StreamBeginRequest& begin,
                                        const std::string& trace_bytes,
                                        std::size_t chunk_bytes = 64 * 1024,
                                        bool* used_hash = nullptr);

  std::vector<ModelInfo> models();

  /// Admin: load (or replace) a model artifact on the server. Paths name
  /// files on the *server's* filesystem; an empty `library_path` binds the
  /// server's default library. Requires the daemon to run with
  /// --allow-admin (else ServeError with kAdminDisabled).
  void load_model(const std::string& name, const std::string& path,
                  const std::string& library_path = std::string());

  /// Admin: retire a registry name. In-flight requests on the old model
  /// still complete; new requests answer kUnknownModel.
  void unload_model(const std::string& name);

  /// Human stats table, or (json = true) the same snapshot as one JSON
  /// object. A router ignores the selector and answers its backend table.
  std::string stats_text(bool json = false);

  /// Prometheus text exposition of the server's metrics registry. With
  /// fleet = true against a router, every backend's metrics merged with a
  /// per-shard shard="host:port" label (a plain serve daemon ignores the
  /// selector and answers its local registry).
  std::string metrics_text(bool fleet = false);

  /// Admin: drain the peer's span ring as Chrome trace JSON (a router
  /// answers the merged fleet trace). Requires --allow-admin on the peer.
  std::string trace_dump_text();

  /// Ask the daemon to shut down (it drains in-flight work first).
  void shutdown_server();

 private:
  /// Send `type`+payload with extension `ext`, read one response frame,
  /// unwrap Error replies. `load_out`, when non-null, receives the reply's
  /// LoadReport (zeros when absent) before an Error is thrown.
  Frame round_trip(MsgType type, const std::string& payload, MsgType expected,
                   const FrameExt& ext = {}, LoadReport* load_out = nullptr);

  util::Socket sock_;
};

}  // namespace atlas::serve
