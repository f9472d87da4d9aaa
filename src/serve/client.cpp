#include "serve/client.h"

#include <optional>

#include "obs/trace.h"
#include "util/hash.h"

namespace atlas::serve {
namespace {

/// Decide the trace context a client call should attach: an explicit
/// caller-supplied context wins, else the thread's ambient one, else —
/// only when tracing is on — a fresh sampled root. Returns nullopt when
/// the request should travel context-free.
std::optional<obs::TraceContext> originate_context(
    const obs::TraceContext& explicit_ctx) {
  if (explicit_ctx.valid()) return explicit_ctx;
  const obs::TraceContext ambient = obs::current_trace_context();
  if (ambient.valid()) return ambient;
  if (obs::trace_enabled()) return obs::make_root_context(/*sampled=*/true);
  return std::nullopt;
}

/// Decode a PredictOk reply; the timing rides the frame's extension block.
PredictResponse predict_reply(const Frame& frame) {
  PredictResponse r = PredictResponse::decode(frame.payload);
  if (frame.ext.timing) {
    r.has_timing = true;
    r.timing = *frame.ext.timing;
  }
  r.has_load = frame.ext.load.has_value();
  return r;
}

}  // namespace

Client Client::connect_tcp(const std::string& host, int port,
                           const ClientOptions& options) {
  Client c(util::connect_tcp(host, port, options.connect_timeout_ms));
  if (options.io_timeout_ms > 0) c.set_io_timeout_ms(options.io_timeout_ms);
  return c;
}

Client Client::connect_unix(const std::string& path,
                            const ClientOptions& options) {
  Client c(util::connect_unix(path, options.connect_timeout_ms));
  if (options.io_timeout_ms > 0) c.set_io_timeout_ms(options.io_timeout_ms);
  return c;
}

void Client::set_io_timeout_ms(int timeout_ms) {
  sock_.set_io_timeout_ms(timeout_ms);
}

Frame Client::round_trip(MsgType type, const std::string& payload,
                         MsgType expected, const FrameExt& ext,
                         LoadReport* load_out) {
  write_frame(sock_, type, payload, ext);
  Frame resp;
  if (!read_frame(sock_, resp)) {
    throw ProtocolError("server closed the connection");
  }
  if (load_out != nullptr) *load_out = resp.ext.load.value_or(LoadReport{});
  if (resp.type == MsgType::kError) {
    const ErrorResponse err = ErrorResponse::decode(resp.payload);
    throw ServeError(err.code, err.message);
  }
  if (resp.type != expected) {
    throw ProtocolError(
        "unexpected response type " +
        std::to_string(static_cast<std::uint32_t>(resp.type)));
  }
  return resp;
}

void Client::ping() {
  round_trip(MsgType::kPing, std::string(), MsgType::kPong);
}

HealthResponse Client::health() {
  const Frame resp =
      round_trip(MsgType::kHealth, std::string(), MsgType::kHealthReport);
  return HealthResponse::decode(resp.payload);
}

PredictResponse Client::predict(const PredictRequest& request,
                                LoadReport* load_out) {
  FrameExt ext = request.ext;
  if (load_out != nullptr) ext.want_queue_depth = true;
  // Traced path: run the round trip under a client span and send that span
  // as the server side's parent.
  const std::optional<obs::TraceContext> ctx = originate_context(ext.trace);
  std::optional<obs::TraceContextScope> scope;
  std::optional<obs::ObsSpan> span;
  if (ctx) {
    scope.emplace(*ctx);
    span.emplace("client", "predict");
    ext.trace = span->context();
  }
  return predict_reply(round_trip(MsgType::kPredict, request.encode(),
                                  MsgType::kPredictOk, ext, load_out));
}

PredictResponse Client::predict_stream(StreamBeginRequest begin,
                                       const std::string& trace_bytes,
                                       std::size_t chunk_bytes) {
  if (chunk_bytes == 0) chunk_bytes = 64 * 1024;
  begin.trace_bytes = trace_bytes.size();
  const std::optional<obs::TraceContext> ctx =
      originate_context(begin.ext.trace);
  std::optional<obs::TraceContextScope> scope;
  std::optional<obs::ObsSpan> span;
  if (ctx) {
    scope.emplace(*ctx);
    span.emplace("client", "stream");
    begin.ext.trace = span->context();
  }
  round_trip(MsgType::kStreamBegin, begin.encode(), MsgType::kStreamAck,
             begin.ext);
  std::uint64_t seq = 0;
  for (std::size_t off = 0; off < trace_bytes.size(); off += chunk_bytes) {
    StreamChunk chunk;
    chunk.seq = seq++;
    chunk.data = trace_bytes.substr(off, chunk_bytes);
    round_trip(MsgType::kStreamChunk, chunk.encode(), MsgType::kStreamAck);
  }
  StreamEndRequest end;
  end.total_chunks = seq;
  end.total_bytes = trace_bytes.size();
  return predict_reply(
      round_trip(MsgType::kStreamEnd, end.encode(), MsgType::kPredictOk));
}

PredictResponse Client::predict_stream_cached(const StreamBeginRequest& begin,
                                              const std::string& trace_bytes,
                                              std::size_t chunk_bytes,
                                              bool* used_hash) {
  StreamBeginRequest by_hash = begin;
  by_hash.design_hash = util::fnv1a64(begin.netlist_verilog);
  by_hash.netlist_verilog.clear();
  try {
    PredictResponse resp = predict_stream(by_hash, trace_bytes, chunk_bytes);
    if (used_hash != nullptr) *used_hash = true;
    return resp;
  } catch (const ServeError& e) {
    // A server that rejects the hash (at StreamBegin, or at predict time
    // after losing the race with eviction) has discarded any partial
    // upload and left the connection usable for the full retry.
    if (e.code() != ErrorCode::kUnknownDesign) throw;
  }
  if (used_hash != nullptr) *used_hash = false;
  StreamBeginRequest full = begin;
  full.design_hash = 0;
  return predict_stream(full, trace_bytes, chunk_bytes);
}

void Client::load_model(const std::string& name, const std::string& path,
                        const std::string& library_path) {
  LoadModelRequest req;
  req.name = name;
  req.path = path;
  req.library_path = library_path;
  round_trip(MsgType::kLoadModel, req.encode(), MsgType::kAdminOk);
}

void Client::unload_model(const std::string& name) {
  UnloadModelRequest req;
  req.name = name;
  round_trip(MsgType::kUnloadModel, req.encode(), MsgType::kAdminOk);
}

std::vector<ModelInfo> Client::models() {
  const Frame resp =
      round_trip(MsgType::kListModels, std::string(), MsgType::kModelList);
  return ModelListResponse::decode(resp.payload).models;
}

std::string Client::stats_text(bool json) {
  const Frame resp =
      round_trip(MsgType::kStats,
                 json ? encode_string_payload("json") : std::string(),
                 MsgType::kStatsText);
  return decode_string_payload(resp.payload);
}

std::string Client::metrics_text(bool fleet) {
  const Frame resp =
      round_trip(MsgType::kMetrics,
                 fleet ? encode_string_payload("fleet") : std::string(),
                 MsgType::kMetricsText);
  return decode_string_payload(resp.payload);
}

std::string Client::trace_dump_text() {
  const Frame resp =
      round_trip(MsgType::kTraceDump, std::string(), MsgType::kTraceJson);
  return decode_string_payload(resp.payload);
}

void Client::shutdown_server() {
  round_trip(MsgType::kShutdown, std::string(), MsgType::kShutdownOk);
}

}  // namespace atlas::serve
