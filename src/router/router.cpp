#include "router/router.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/fleet_obs.h"
#include "serve/client.h"
#include "serve/feature_cache.h"
#include "util/hash.h"

namespace atlas::router {
namespace {

using serve::error_reply;
using serve::ErrorCode;
using serve::ErrorResponse;
using serve::Frame;
using serve::MsgType;

obs::Counter& backend_counter(const char* name, const std::string& backend) {
  return obs::Registry::global().counter(name,
                                         "backend=\"" + backend + "\"");
}

void count_request(const std::string& backend) {
  backend_counter("atlas_router_requests_total", backend).inc();
}
void count_error(const std::string& backend) {
  backend_counter("atlas_router_errors_total", backend).inc();
}
void count_failover(const std::string& backend) {
  backend_counter("atlas_router_failovers_total", backend).inc();
}

/// The code of a backend Error reply; kInternal when its payload does not
/// decode.
ErrorCode error_code_of(const Frame& reply) {
  try {
    return ErrorResponse::decode(reply.payload).code;
  } catch (const serve::ProtocolError&) {
    return ErrorCode::kInternal;
  }
}

util::Socket connect_to(const BackendAddress& addr, int timeout_ms) {
  return addr.is_unix() ? util::connect_unix(addr.unix_path, timeout_ms)
                        : util::connect_tcp(addr.host, addr.port, timeout_ms);
}

/// The trace context a routed request runs under: the client's when it sent
/// one, a fresh sampled root when tracing is on (so context-less clients
/// still get a fleet-linked trace), invalid otherwise (untraced path).
obs::TraceContext adopt_context(const obs::TraceContext& from_request) {
  if (from_request.valid()) return from_request;
  if (obs::trace_enabled()) return obs::make_root_context(/*sampled=*/true);
  return obs::TraceContext{};
}

}  // namespace

Router::Router(RouterConfig config, std::vector<BackendAddress> backends)
    : config_(std::move(config)),
      pool_(std::make_unique<BackendPool>(std::move(backends), config_.probe,
                                          config_.routing)),
      host_("router", config_, config_.verbose) {}

Router::~Router() { stop(); }

void Router::start() {
  // Bind before the prober starts: a bind failure then leaves no thread
  // behind for a stop() that has nothing to stop.
  host_.bind();
  pool_->start();
  // Register the per-backend counter families up front so they render at
  // zero before the first request/error/failover — scrapers see the series
  // exist rather than inferring absence-of-incident from absence-of-metric.
  for (const BackendAddress& b : pool_->all_backends()) {
    backend_counter("atlas_router_requests_total", b.id);
    backend_counter("atlas_router_errors_total", b.id);
    backend_counter("atlas_router_failovers_total", b.id);
  }
  host_.start([this]() -> serve::ConnectionHost::FrameHandler {
    // Per-connection: the upstream sockets and the stream relay die with it.
    auto upstreams = std::make_shared<UpstreamMap>();
    auto relay = std::make_shared<StreamRelay>();
    return [this, upstreams, relay](Frame& frame) {
      return handle_frame(std::move(frame), *upstreams, *relay);
    };
  });
}

void Router::stop() {
  if (!host_.running()) return;
  host_.close_connections();
  pool_->stop();
}

std::string Router::stats_text() const {
  std::ostringstream os;
  const std::vector<BackendStatus> statuses = pool_->snapshot();
  std::size_t up = 0;
  for (const BackendStatus& s : statuses) {
    if (s.state == BackendState::kUp) ++up;
  }
  os << "atlas_router: " << up << "/" << statuses.size()
     << " backends up, ring size " << pool_->ring_size() << ", generation "
     << pool_->ring_generation() << ", hot keys " << pool_->hot_keys_tracked()
     << " tracked (replicas " << pool_->routing().replicas << ")\n";
  for (const BackendStatus& s : statuses) {
    os << "  " << s.address.id << ": " << backend_state_name(s.state)
       << (s.in_ring ? " (in ring)" : " (out of ring)") << ", probes "
       << s.probes_ok << " ok / " << s.probes_failed << " failed";
    if (s.probes_ok > 0) {
      os << ", models " << s.health.num_models << ", cache "
         << s.health.cache_designs << " designs / "
         << s.health.cache_total_bytes << " bytes, queue "
         << s.health.queue_depth << ", registry gen "
         << s.health.registry_generation << ", load " << s.load
         << (s.load_fresh ? " (fresh)" : " (stale)")
         << (s.overloaded ? " OVERLOADED" : "");
    }
    os << "\n";
  }
  return os.str();
}

std::string Router::stats_json() const {
  const std::vector<BackendStatus> statuses = pool_->snapshot();
  std::size_t up = 0;
  for (const BackendStatus& s : statuses) {
    if (s.state == BackendState::kUp) ++up;
  }
  auto u = [](std::uint64_t v) { return std::to_string(v); };
  auto b = [](bool v) { return std::string(v ? "true" : "false"); };
  std::string out = "{\"backends_up\":" + u(up) +
                    ",\"ring_size\":" + u(pool_->ring_size()) +
                    ",\"ring_generation\":" + u(pool_->ring_generation()) +
                    ",\"hot_keys_tracked\":" + u(pool_->hot_keys_tracked()) +
                    ",\"replicas\":" + u(pool_->routing().replicas) +
                    ",\"backends\":[";
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const BackendStatus& s = statuses[i];
    if (i > 0) out += ',';
    // Health fields stay zero until the first probe succeeds.
    out += "{\"id\":\"";
    obs::append_json_escaped(out, s.address.id.c_str());
    out += "\",\"state\":\"" + std::string(backend_state_name(s.state)) +
           "\",\"in_ring\":" + b(s.in_ring) +
           ",\"probes_ok\":" + u(s.probes_ok) +
           ",\"probes_failed\":" + u(s.probes_failed) +
           ",\"models\":" + u(s.health.num_models) +
           ",\"cache_designs\":" + u(s.health.cache_designs) +
           ",\"cache_total_bytes\":" + u(s.health.cache_total_bytes) +
           ",\"queue_depth\":" + u(s.health.queue_depth) +
           ",\"registry_generation\":" + u(s.health.registry_generation) +
           ",\"load\":" + u(s.load) + ",\"load_fresh\":" + b(s.load_fresh) +
           ",\"overloaded\":" + b(s.overloaded) + "}";
  }
  return out + "]}";
}

serve::HealthResponse Router::health_snapshot() const {
  // Health is rare monitoring traffic: refresh every shard synchronously so
  // the aggregate reflects the fleet as of this request, not the last
  // background probe tick. The sweep probes concurrently (see
  // BackendPool::probe_all_now), so a downed shard costs this request one
  // probe timeout total — not one per dead backend.
  pool_->probe_all_now();
  serve::HealthResponse h = pool_->aggregate_health();
  h.draining = host_.stopping() || host_.stop_requested();
  return h;
}

Frame Router::handle_frame(Frame frame, UpstreamMap& upstreams,
                          StreamRelay& relay) {
  switch (frame.type) {
    case MsgType::kPing:
      return {MsgType::kPong, serve::encode_string_payload("pong")};
    case MsgType::kHealth:
      return {MsgType::kHealthReport, health_snapshot().encode()};
    case MsgType::kStats:
    case MsgType::kMetrics:
      try {
        const std::string mode = serve::optional_string_payload(frame.payload);
        return frame.type == MsgType::kStats
                   ? Frame{MsgType::kStatsText,
                           serve::encode_string_payload(
                               mode == "json" ? stats_json() : stats_text())}
                   : Frame{MsgType::kMetricsText,
                           serve::encode_string_payload(
                               mode == "fleet" ? fleet_metrics()
                                               : obs::Registry::global()
                                                     .render_prometheus())};
      } catch (const serve::ProtocolError& e) {
        return error_reply(ErrorCode::kBadRequest, e.what());
      }
    case MsgType::kTraceDump:
      return trace_dump_fanout();
    case MsgType::kShutdown:
      // Shut the router down; the backends are someone else's lifecycle
      // (an operator draining the tier does not want the fleet dead).
      host_.request_stop();
      return {MsgType::kShutdownOk, serve::encode_string_payload("ok")};
    case MsgType::kListModels:
      // Models are replicated fleet-wide: any live shard's list is the
      // tier's list. Routed like a predict (with failover) so a dead
      // backend never blanks the answer.
    case MsgType::kPredict:
      return route_predict(upstreams, std::move(frame));
    case MsgType::kLoadModel:
    case MsgType::kUnloadModel:
      return admin_fanout(frame);
    case MsgType::kStreamBegin:
    case MsgType::kStreamChunk:
    case MsgType::kStreamEnd:
      return handle_stream(upstreams, std::move(frame), relay);
    default:
      return error_reply(
          ErrorCode::kBadRequest,
          "unknown message type " +
              std::to_string(static_cast<std::uint32_t>(frame.type)));
  }
}

util::Socket* Router::upstream(UpstreamMap& upstreams, const std::string& id) {
  auto it = upstreams.find(id);
  if (it != upstreams.end() && it->second.valid()) return &it->second;
  const std::optional<BackendAddress> addr = pool_->address(id);
  if (!addr) return nullptr;
  try {
    auto [pos, inserted] = upstreams.insert_or_assign(
        id, connect_to(*addr, config_.backend_connect_timeout_ms));
    return &pos->second;
  } catch (const util::SocketError&) {
    return nullptr;
  }
}

bool Router::forward(UpstreamMap& upstreams, const std::string& id,
                     const Frame& request, Frame& response) {
  util::Socket* sock = upstream(upstreams, id);
  if (sock == nullptr) {
    pool_->report_failure(id);
    return false;
  }
  try {
    serve::write_frame(*sock, request.type, request.payload, request.ext);
    if (!serve::read_frame(*sock, response)) {
      throw serve::ProtocolError("backend closed the connection");
    }
  } catch (const std::exception&) {
    // SocketError, ProtocolError or EOF: the upstream byte stream is gone
    // or unsynchronizable either way. Drop the socket, evict the shard.
    upstreams.erase(id);
    pool_->report_failure(id);
    return false;
  }
  count_request(id);
  return true;
}

std::uint64_t Router::placement_key(std::uint64_t netlist_hash,
                                    const std::string& model) const {
  std::uint64_t lib_hash = pool_->library_hash_for(model);
  if (lib_hash == 0) lib_hash = util::fnv1a64(model);
  return serve::design_cache_key(netlist_hash, lib_hash);
}

Frame Router::route_predict(UpstreamMap& upstreams, Frame request) {
  std::vector<std::string> chain;
  // Keyed predicts ask the shard to piggyback its live load on the reply
  // (want_queue_depth), and traced ones get a fresh per-attempt child span
  // as the backend's parent — both in the forwarded frame's extension, so
  // the client's payload bytes are forwarded unchanged. Unkeyed requests
  // (ListModels) are forwarded as they came.
  const bool keyed = request.type == MsgType::kPredict;
  std::optional<obs::TraceContextScope> scope;
  std::optional<obs::ObsSpan> span;
  if (keyed) {
    serve::PredictRequest req;
    try {
      req = serve::PredictRequest::decode(request.payload);
    } catch (const serve::ProtocolError& e) {
      return error_reply(ErrorCode::kBadRequest, e.what());
    }
    chain = pool_->route_load_aware(
        placement_key(netlist_hashes_.fnv1a64(req.netlist_verilog),
                      req.model),
        /*open_forward=*/true);
    request.ext.want_queue_depth = true;
    const obs::TraceContext ctx = adopt_context(request.ext.trace);
    if (ctx.valid()) {
      scope.emplace(ctx);
      span.emplace("router", "predict");
    }
  } else {
    // Any live shard will do; use the chain for a fixed key so the answer
    // is deterministic while the ring is.
    chain = pool_->route(0);
  }
  if (chain.empty()) {
    return error_reply(ErrorCode::kInternal,
                       "no live backends (ring is empty)");
  }
  return forward_along(upstreams, chain, request, span.has_value(), keyed);
}

Frame Router::forward_along(UpstreamMap& upstreams,
                            const std::vector<std::string>& chain,
                            Frame& request, bool traced, bool predict,
                            std::size_t* served) {
  // If every candidate sheds, the client must see the overload (retryable,
  // self-describing), not a generic routing failure.
  std::optional<Frame> overloaded_reply;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::string& id = chain[i];
    Frame response;
    // The attempt span covers exactly this round trip, so a failover shows
    // up in the merged timeline as one short failed attempt followed by a
    // sibling against the successor.
    std::optional<obs::ObsSpan> attempt;
    if (traced) {
      attempt.emplace("router", "forward:" + id);
      request.ext.trace = attempt->context();
    }
    const bool forwarded = forward(upstreams, id, request, response);
    if (predict && i == 0) pool_->forward_done(id);
    if (!forwarded) {
      count_failover(id);
      continue;
    }
    if (predict && response.ext.load) {
      // Feed the request-fresh depth to the routing policy and clear it:
      // the client's reply must stay bit-identical to direct serving.
      pool_->note_load(id, response.ext.load->load,
                       response.ext.load->wait_dominated());
      response.ext.load.reset();
    }
    if (response.type == MsgType::kError) {
      const ErrorCode code = error_code_of(response);
      if (code == ErrorCode::kShuttingDown) {
        // The shard is draining, not broken: take it out of new placements
        // and let the successor serve this request.
        pool_->report_draining(id);
        count_failover(id);
        continue;
      }
      if (code == ErrorCode::kOverloaded && predict) {
        // Authoritative about the *shard's* state, not about the request:
        // the shard is healthy but past its cold-request watermark. Rank
        // it last for future picks and try the next candidate — for a hot
        // key that is a warm replica, which is exactly where the shed
        // wants this request to land.
        pool_->note_overloaded(id);
        count_failover(id);
        overloaded_reply = std::move(response);
        continue;
      }
      // Authoritative: the backend looked at the request and said no
      // (unknown model, bad request, unknown design, ...). Relay it.
      count_error(id);
    }
    if (served != nullptr) *served = i;
    return response;
  }
  if (overloaded_reply) return std::move(*overloaded_reply);
  return error_reply(ErrorCode::kInternal,
                     "all " + std::to_string(chain.size()) +
                         " candidate backends failed");
}

bool Router::replay_stream(UpstreamMap& upstreams, const std::string& id,
                           const StreamRelay& relay, Frame& error,
                           bool& authoritative) {
  authoritative = false;
  Frame response;
  if (!forward(upstreams, id, relay.begin, response)) return false;
  if (response.type == MsgType::kError) {
    // e.g. kUnknownDesign: the successor's cache is cold for a design-by-
    // hash stream. That is the client's fallback protocol, not ours.
    error = std::move(response);
    authoritative = true;
    return false;
  }
  for (const Frame& chunk : relay.chunks) {
    if (!forward(upstreams, id, chunk, response)) return false;
    if (response.type == MsgType::kError) {
      error = std::move(response);
      authoritative = true;
      return false;
    }
  }
  return true;
}

bool Router::failover_stream(UpstreamMap& upstreams, StreamRelay& relay,
                             Frame& reply) {
  count_failover(relay.backend);
  // Traced streams: each failover attempt gets its own child span under the
  // context adopted at Begin, and the buffered Begin's extension is
  // re-parented under it before replay so the successor's spans link
  // through this attempt.
  std::optional<obs::TraceContextScope> scope;
  if (relay.ctx.valid()) scope.emplace(relay.ctx);
  while (++relay.chain_pos < relay.chain.size()) {
    const std::string& candidate = relay.chain[relay.chain_pos];
    std::optional<obs::ObsSpan> attempt;
    if (relay.ctx.valid()) {
      attempt.emplace("router", "stream_failover:" + candidate);
      relay.begin.ext.trace = attempt->context();
    }
    Frame error;
    bool authoritative = false;
    if (replay_stream(upstreams, candidate, relay, error, authoritative)) {
      relay.backend = candidate;
      return true;
    }
    if (authoritative) {
      count_error(candidate);
      reply = std::move(error);
      relay.reset();
      return false;
    }
    count_failover(candidate);
  }
  reply = error_reply(ErrorCode::kInternal,
                      "stream failover exhausted all candidate backends");
  relay.reset();
  return false;
}

Frame Router::handle_stream(UpstreamMap& upstreams, Frame frame,
                            StreamRelay& relay) {
  if (frame.type == MsgType::kStreamBegin) {
    if (relay.active) {
      // Mirror the backend contract (stream_begin while active is a
      // protocol error that discards the upload) — and close the pinned
      // upstream so the backend's per-connection stream state dies too,
      // keeping router and shard in sync for the client's retry.
      upstreams.erase(relay.backend);
      relay.reset();
      return error_reply(ErrorCode::kStreamProtocol,
                         "stream_begin while a stream is active (partial "
                         "upload discarded)");
    }
    serve::StreamBeginRequest begin;
    try {
      begin = serve::StreamBeginRequest::decode(frame.payload);
    } catch (const serve::ProtocolError& e) {
      return error_reply(ErrorCode::kBadRequest, e.what());
    }
    if (begin.trace_bytes == 0 ||
        begin.trace_bytes > serve::kMaxStreamBytes) {
      // Enforced here because the declared size bounds the replay buffer.
      return error_reply(
          ErrorCode::kStreamProtocol,
          "declared trace size " + std::to_string(begin.trace_bytes) +
              " outside (0, " + std::to_string(serve::kMaxStreamBytes) + "]");
    }
    const std::uint64_t netlist_hash = begin.design_hash != 0
                                           ? begin.design_hash
                                           : netlist_hashes_.fnv1a64(
                                                 begin.netlist_verilog);
    std::vector<std::string> chain =
        pool_->route_load_aware(placement_key(netlist_hash, begin.model));
    if (chain.empty()) {
      return error_reply(ErrorCode::kInternal,
                         "no live backends (ring is empty)");
    }
    const obs::TraceContext ctx = adopt_context(frame.ext.trace);
    std::optional<obs::TraceContextScope> scope;
    std::optional<obs::ObsSpan> span;
    if (ctx.valid()) {
      scope.emplace(ctx);
      span.emplace("router", "stream_begin");
    }
    // want_queue_depth makes the shard piggyback its live load on the
    // StreamEnd reply (cleared below before it reaches the client).
    frame.ext.want_queue_depth = true;
    std::size_t served = 0;
    Frame response = forward_along(upstreams, chain, frame, span.has_value(),
                                   /*predict=*/false, &served);
    if (response.type != MsgType::kError) {
      relay.active = true;
      relay.backend = chain[served];
      relay.chain = std::move(chain);
      relay.chain_pos = served;
      relay.begin = std::move(frame);
      relay.ctx = ctx;
    }
    return response;
  }

  // Chunk / End.
  if (!relay.active) {
    return error_reply(ErrorCode::kStreamProtocol,
                       frame.type == MsgType::kStreamChunk
                           ? "stream_chunk without stream_begin"
                           : "stream_end without stream_begin");
  }
  for (;;) {
    Frame response;
    if (!forward(upstreams, relay.backend, frame, response)) {
      Frame reply;
      if (!failover_stream(upstreams, relay, reply)) return reply;
      continue;  // stream replayed onto the successor; re-send this frame
    }
    if (frame.type == MsgType::kStreamEnd && response.ext.load) {
      // The load report rides the End reply (the Begin we forwarded asked
      // for it) — on errors too. Clear it before relaying anything.
      pool_->note_load(relay.backend, response.ext.load->load,
                       response.ext.load->wait_dominated());
      response.ext.load.reset();
    }
    if (response.type == MsgType::kError) {
      if (error_code_of(response) == ErrorCode::kShuttingDown) {
        // Only StreamEnd's predict dispatch answers this; the upload is
        // fully buffered, so replaying it to the successor turns a drain
        // into a transparent retry.
        pool_->report_draining(relay.backend);
        Frame reply;
        if (!failover_stream(upstreams, relay, reply)) return reply;
        continue;
      }
      // Authoritative rejection: the backend discarded the upload; drop
      // our copy and relay.
      count_error(relay.backend);
      relay.reset();
      return response;
    }
    if (frame.type == MsgType::kStreamChunk) {
      relay.chunks.push_back(std::move(frame));
      return response;
    }
    // StreamEnd answered with the prediction: the stream is done.
    relay.reset();
    return response;
  }
}

util::Socket Router::admin_connect(const BackendAddress& addr) const {
  util::Socket sock = connect_to(addr, config_.backend_connect_timeout_ms);
  sock.set_io_timeout_ms(std::max(config_.probe.timeout_ms * 10, 10000));
  return sock;
}

Frame Router::admin_fanout(const Frame& frame) {
  if (!config_.allow_admin) {
    return error_reply(ErrorCode::kAdminDisabled,
                       "model administration is disabled "
                       "(start the router with --allow-admin)");
  }
  const std::vector<BackendAddress> backends = pool_->all_backends();
  std::ostringstream report;
  std::size_t ok = 0;
  for (const BackendAddress& addr : backends) {
    report << addr.id << ": ";
    try {
      util::Socket sock = admin_connect(addr);
      serve::write_frame(sock, frame.type, frame.payload);
      Frame response;
      if (!serve::read_frame(sock, response)) {
        throw serve::ProtocolError("backend closed the connection");
      }
      if (response.type == MsgType::kAdminOk) {
        report << serve::decode_string_payload(response.payload);
        ++ok;
      } else if (response.type == MsgType::kError) {
        const ErrorResponse err = ErrorResponse::decode(response.payload);
        report << "error " << serve::error_code_name(err.code) << ": "
               << err.message;
      } else {
        report << "unexpected response type "
               << static_cast<std::uint32_t>(response.type);
      }
    } catch (const std::exception& e) {
      report << "unreachable: " << e.what();
    }
    report << "\n";
  }
  // A load/unload changes the model -> library binding the placement key
  // depends on; refresh it now instead of waiting out a probe interval.
  pool_->probe_all_now();
  const std::string text = std::to_string(ok) + "/" +
                           std::to_string(backends.size()) + " backends ok\n" +
                           report.str();
  if (ok == backends.size()) {
    return {MsgType::kAdminOk, serve::encode_string_payload(text)};
  }
  return error_reply(ErrorCode::kInternal,
                     "admin fan-out incomplete: " + text);
}

Frame Router::trace_dump_fanout() {
  if (!config_.allow_admin) {
    return error_reply(ErrorCode::kAdminDisabled,
                       "trace dump is disabled "
                       "(start the router with --allow-admin)");
  }
  std::vector<std::string> parts;
  parts.push_back(obs::Trace::drain_chrome_json());
  for (const BackendAddress& addr : pool_->all_backends()) {
    try {
      serve::Client client(admin_connect(addr));
      parts.push_back(client.trace_dump_text());
    } catch (const std::exception& e) {
      // Unreachable (or admin-disabled) shard: a forensic pull should
      // return what the rest of the fleet has, not fail on the sickest
      // member. The gap is visible — that shard's pid is absent.
      if (config_.verbose) {
        obs::LogLine(obs::LogLevel::kWarn, "router")
            .kv("event", "trace_dump_skip")
            .kv("backend", addr.id)
            .kv("error", e.what());
      }
    }
  }
  return {MsgType::kTraceJson,
          serve::encode_string_payload(obs::merge_chrome_json(parts))};
}

std::string Router::fleet_metrics() {
  std::vector<std::pair<std::string, std::string>> shards;
  shards.emplace_back("router", obs::Registry::global().render_prometheus());
  for (const BackendAddress& addr : pool_->all_backends()) {
    try {
      serve::Client client(admin_connect(addr));
      shards.emplace_back(addr.id, client.metrics_text());
    } catch (const std::exception&) {
      // A dead shard contributes no series; atlas_router_backend_up{...} 0
      // (in the router's own exposition) is the signal scrapers alert on.
    }
  }
  return merge_prometheus(shards);
}

}  // namespace atlas::router
