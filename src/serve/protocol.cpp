#include "serve/protocol.h"

#include <cstring>
#include <span>
#include <string_view>

#include "util/serialize.h"

namespace atlas::serve {
namespace {

using util::ByteReader;
using util::ByteWriter;

void write_group_power_rows(ByteWriter& out,
                            std::span<const power::GroupPower> rows) {
  out.u64(rows.size());
  for (const power::GroupPower& g : rows) {
    out.f64(g.comb);
    out.f64(g.reg);
    out.f64(g.clock);
    out.f64(g.memory);
  }
}

std::vector<power::GroupPower> read_group_power_rows(ByteReader& in) {
  return in.vector<power::GroupPower>(4 * 8, [](ByteReader& r) {
    power::GroupPower g;
    g.comb = r.f64();
    g.reg = r.f64();
    g.clock = r.f64();
    g.memory = r.f64();
    return g;
  });
}

template <typename Fn>
std::string encode_payload(Fn&& fn) {
  std::string out;
  ByteWriter w(out);
  fn(w);
  return out;
}

template <typename T, typename Fn>
T decode_payload(const std::string& payload, Fn&& fn) try {
  ByteReader in(payload);
  T value = fn(in);
  // Payloads carry exactly their own fields; metadata rides the frame
  // extension, so trailing bytes can only be corruption.
  if (!in.done()) throw ProtocolError("trailing bytes after payload fields");
  return value;
} catch (const util::SerializeError& e) {
  throw ProtocolError(std::string("bad payload: ") + e.what());
}

// FrameExt presence bits. A field follows the mask only when its bit is
// set, in bit order; the flag bits carry no bytes.
constexpr std::uint32_t kExtTrace = 1u << 0;       // trace_hi, trace_lo, span_id
constexpr std::uint32_t kExtSampled = 1u << 1;
constexpr std::uint32_t kExtWantTiming = 1u << 2;
constexpr std::uint32_t kExtWantQueueDepth = 1u << 3;
constexpr std::uint32_t kExtTiming = 1u << 4;      // 7 x u64 (ServerTiming)
constexpr std::uint32_t kExtLoad = 1u << 5;        // load, flags
constexpr std::uint32_t kExtKnownBits = (1u << 6) - 1;
static_assert(4 + 3 * 8 + 7 * 8 + 2 * 8 <= kMaxFrameExtBytes,
              "the fullest extension block must fit the reader's cap");

/// Appends the encoded block for `ext` (nothing when every field is absent).
void append_frame_ext(std::string& bytes, const FrameExt& ext) {
  std::uint32_t mask = 0;
  if (ext.trace.valid()) {
    mask |= kExtTrace;
    if (ext.trace.sampled) mask |= kExtSampled;
  }
  if (ext.want_timing) mask |= kExtWantTiming;
  if (ext.want_queue_depth) mask |= kExtWantQueueDepth;
  if (ext.timing) mask |= kExtTiming;
  if (ext.load) mask |= kExtLoad;
  if (mask == 0) return;
  ByteWriter out(bytes);
  out.u32(mask);
  if (mask & kExtTrace) {
    out.u64(ext.trace.trace_hi);
    out.u64(ext.trace.trace_lo);
    out.u64(ext.trace.span_id);
  }
  if (const auto& t = ext.timing) {
    for (const std::uint64_t v : {t->batch_wait_us, t->queue_us, t->cache_us,
                                  t->encode_us, t->predict_us, t->serialize_us,
                                  t->total_us}) {
      out.u64(v);
    }
  }
  if (ext.load) {
    out.u64(ext.load->load);
    out.u64(ext.load->flags);
  }
}

FrameExt decode_frame_ext(std::string_view bytes) try {
  FrameExt ext;
  if (bytes.empty()) return ext;
  ByteReader in(bytes);
  const std::uint32_t mask = in.u32();
  if (mask == 0 || (mask & ~kExtKnownBits) != 0) {
    throw ProtocolError("bad frame extension presence mask " +
                        std::to_string(mask));
  }
  if (mask & kExtTrace) {
    ext.trace.trace_hi = in.u64();
    ext.trace.trace_lo = in.u64();
    ext.trace.span_id = in.u64();
    ext.trace.sampled = (mask & kExtSampled) != 0;
  }
  ext.want_timing = (mask & kExtWantTiming) != 0;
  ext.want_queue_depth = (mask & kExtWantQueueDepth) != 0;
  if (mask & kExtTiming) {
    ServerTiming& t = ext.timing.emplace();
    for (std::uint64_t* v : {&t.batch_wait_us, &t.queue_us, &t.cache_us,
                             &t.encode_us, &t.predict_us, &t.serialize_us,
                             &t.total_us}) {
      *v = in.u64();
    }
  }
  if (mask & kExtLoad) {
    LoadReport& r = ext.load.emplace();
    r.load = in.u64();
    r.flags = in.u64();
  }
  if (!in.done()) {
    throw ProtocolError("frame extension longer than its presence mask");
  }
  return ext;
} catch (const util::SerializeError& e) {
  throw ProtocolError(
      std::string("frame extension shorter than its presence mask: ") +
      e.what());
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "kBadRequest";
    case ErrorCode::kUnknownModel: return "kUnknownModel";
    case ErrorCode::kUnknownWorkload: return "kUnknownWorkload";
    case ErrorCode::kDeadlineExceeded: return "kDeadlineExceeded";
    case ErrorCode::kShuttingDown: return "kShuttingDown";
    case ErrorCode::kInternal: return "kInternal";
    case ErrorCode::kStreamProtocol: return "kStreamProtocol";
    case ErrorCode::kAdminDisabled: return "kAdminDisabled";
    case ErrorCode::kUnknownDesign: return "kUnknownDesign";
    case ErrorCode::kOverloaded: return "kOverloaded";
  }
  return "kUnknownErrorCode";
}

std::string encode_frame(MsgType type, const std::string& payload,
                         const FrameExt& ext) {
  std::string ext_bytes;
  append_frame_ext(ext_bytes, ext);
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + ext_bytes.size());
  ByteWriter header(out);
  header.header(kFrameMagic, static_cast<std::uint32_t>(type));
  header.u64(payload.size() + ext_bytes.size());
  header.u32(static_cast<std::uint32_t>(ext_bytes.size()));
  out += payload;
  out += ext_bytes;
  return out;
}

void write_frame(util::Socket& sock, MsgType type, const std::string& payload,
                 const FrameExt& ext) {
  const std::string wire = encode_frame(type, payload, ext);
  sock.send_all(wire.data(), wire.size());
}

bool read_frame(util::Socket& sock, Frame& out, std::size_t max_frame_bytes) {
  char header[kFrameHeaderBytes];
  const std::size_t got = sock.recv_exact(header, sizeof(header));
  if (got == 0) return false;
  if (got < sizeof(header)) throw ProtocolError("truncated frame header");
  if (std::memcmp(header, kFrameMagic, 4) != 0) {
    throw ProtocolError("bad frame magic");
  }
  ByteReader fields(std::string_view(header + 4, sizeof(header) - 4));
  const std::uint32_t type = fields.u32();
  const std::uint64_t len = fields.u64();
  const std::uint32_t ext_len = fields.u32();
  if (len > max_frame_bytes) {
    throw ProtocolError("declared frame length " + std::to_string(len) +
                        " exceeds limit " + std::to_string(max_frame_bytes));
  }
  if (ext_len > kMaxFrameExtBytes) {
    throw ProtocolError("declared extension length " + std::to_string(ext_len) +
                        " exceeds limit " + std::to_string(kMaxFrameExtBytes));
  }
  if (ext_len > len) {
    throw ProtocolError("declared extension length " + std::to_string(ext_len) +
                        " exceeds the frame body of " + std::to_string(len) +
                        " bytes");
  }
  out.type = static_cast<MsgType>(type);
  out.payload.resize(static_cast<std::size_t>(len));
  if (sock.recv_exact(out.payload.data(), out.payload.size()) < len) {
    throw ProtocolError("truncated frame body");
  }
  const std::size_t payload_len = static_cast<std::size_t>(len - ext_len);
  out.ext = decode_frame_ext(std::string_view(out.payload).substr(payload_len));
  out.payload.resize(payload_len);
  return true;
}

std::string PredictRequest::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.string(model);
    out.string(netlist_verilog);
    out.string(workload);
    out.u32(static_cast<std::uint32_t>(cycles));
    out.u32(deadline_ms);
    out.u32(want_submodules ? 1u : 0u);
  });
}

PredictRequest PredictRequest::decode(const std::string& payload) {
  return decode_payload<PredictRequest>(payload, [](ByteReader& in) {
    PredictRequest r;
    r.model = in.string();
    r.netlist_verilog = in.string();
    r.workload = in.string();
    r.cycles = static_cast<std::int32_t>(in.u32());
    r.deadline_ms = in.u32();
    r.want_submodules = in.u32() != 0;
    return r;
  });
}

std::string StreamBeginRequest::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.string(model);
    out.string(netlist_verilog);
    out.u32(static_cast<std::uint32_t>(format));
    out.u32(static_cast<std::uint32_t>(cycles));
    out.u32(deadline_ms);
    out.u32(want_submodules ? 1u : 0u);
    out.u64(trace_bytes);
    out.u64(design_hash);
  });
}

StreamBeginRequest StreamBeginRequest::decode(const std::string& payload) {
  return decode_payload<StreamBeginRequest>(payload, [](ByteReader& in) {
    StreamBeginRequest r;
    r.model = in.string();
    r.netlist_verilog = in.string();
    const std::uint32_t fmt = in.u32();
    if (fmt != static_cast<std::uint32_t>(TraceFormat::kVcdText) &&
        fmt != static_cast<std::uint32_t>(TraceFormat::kToggleDelta)) {
      throw ProtocolError("unknown trace format " + std::to_string(fmt));
    }
    r.format = static_cast<TraceFormat>(fmt);
    r.cycles = static_cast<std::int32_t>(in.u32());
    r.deadline_ms = in.u32();
    r.want_submodules = in.u32() != 0;
    r.trace_bytes = in.u64();
    r.design_hash = in.u64();
    return r;
  });
}

std::string StreamChunk::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.u64(seq);
    out.string(data);
  });
}

StreamChunk StreamChunk::decode(const std::string& payload) {
  return decode_payload<StreamChunk>(payload, [](ByteReader& in) {
    StreamChunk c;
    c.seq = in.u64();
    c.data = in.string();
    return c;
  });
}

std::string StreamEndRequest::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.u64(total_chunks);
    out.u64(total_bytes);
  });
}

StreamEndRequest StreamEndRequest::decode(const std::string& payload) {
  return decode_payload<StreamEndRequest>(payload, [](ByteReader& in) {
    StreamEndRequest r;
    r.total_chunks = in.u64();
    r.total_bytes = in.u64();
    return r;
  });
}

std::string LoadModelRequest::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.string(name);
    out.string(path);
    out.string(library_path);
  });
}

LoadModelRequest LoadModelRequest::decode(const std::string& payload) {
  return decode_payload<LoadModelRequest>(payload, [](ByteReader& in) {
    LoadModelRequest r;
    r.name = in.string();
    r.path = in.string();
    r.library_path = in.string();
    return r;
  });
}

std::string UnloadModelRequest::encode() const {
  return encode_payload(
      [this](ByteWriter& out) { out.string(name); });
}

UnloadModelRequest UnloadModelRequest::decode(const std::string& payload) {
  return decode_payload<UnloadModelRequest>(payload, [](ByteReader& in) {
    UnloadModelRequest r;
    r.name = in.string();
    return r;
  });
}

std::string StreamAck::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.u64(seq);
    out.u64(received_bytes);
  });
}

StreamAck StreamAck::decode(const std::string& payload) {
  return decode_payload<StreamAck>(payload, [](ByteReader& in) {
    StreamAck a;
    a.seq = in.u64();
    a.received_bytes = in.u64();
    return a;
  });
}

std::string PredictResponse::encode() const {
  return encode_with_rows(design, submodule);
}

std::string PredictResponse::encode_with_rows(
    std::span<const power::GroupPower> design_rows,
    std::span<const power::GroupPower> submodule_rows) const {
  return encode_payload([&](ByteWriter& out) {
    out.u32(cache_flags);
    out.f64(server_seconds);
    out.u32(static_cast<std::uint32_t>(num_cycles));
    out.u64(num_submodules);
    write_group_power_rows(out, design_rows);
    write_group_power_rows(out, submodule_rows);
  });
}

PredictResponse PredictResponse::decode(const std::string& payload) {
  return decode_payload<PredictResponse>(payload, [](ByteReader& in) {
    PredictResponse r;
    r.cache_flags = in.u32();
    r.server_seconds = in.f64();
    r.num_cycles = static_cast<std::int32_t>(in.u32());
    r.num_submodules = in.u64();
    r.design = read_group_power_rows(in);
    r.submodule = read_group_power_rows(in);
    return r;
  });
}

std::string ModelListResponse::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.u64(models.size());
    for (const ModelInfo& m : models) {
      out.string(m.name);
      out.u64(m.encoder_dim);
      out.string(m.library);
      out.u64(m.generation);
      out.u64(m.library_hash);
    }
  });
}

ModelListResponse ModelListResponse::decode(const std::string& payload) {
  return decode_payload<ModelListResponse>(payload, [](ByteReader& in) {
    ModelListResponse list;
    // Two length-prefixed strings and three u64 per model.
    list.models = in.vector<ModelInfo>(5 * 8, [](ByteReader& r) {
      ModelInfo m;
      m.name = r.string();
      m.encoder_dim = r.u64();
      m.library = r.string();
      m.generation = r.u64();
      m.library_hash = r.u64();
      return m;
    });
    return list;
  });
}

std::string HealthResponse::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.u64(registry_generation);
    out.u64(num_models);
    out.u64(cache_designs);
    out.u64(cache_total_bytes);
    out.u64(cache_embedding_bytes);
    out.u64(queue_depth);
    out.u32(draining ? 1u : 0u);
  });
}

HealthResponse HealthResponse::decode(const std::string& payload) {
  return decode_payload<HealthResponse>(payload, [](ByteReader& in) {
    HealthResponse h;
    h.registry_generation = in.u64();
    h.num_models = in.u64();
    h.cache_designs = in.u64();
    h.cache_total_bytes = in.u64();
    h.cache_embedding_bytes = in.u64();
    h.queue_depth = in.u64();
    h.draining = in.u32() != 0;
    return h;
  });
}

std::string ErrorResponse::encode() const {
  return encode_payload([this](ByteWriter& out) {
    out.u32(static_cast<std::uint32_t>(code));
    out.string(message);
  });
}

ErrorResponse ErrorResponse::decode(const std::string& payload) {
  return decode_payload<ErrorResponse>(payload, [](ByteReader& in) {
    ErrorResponse r;
    r.code = static_cast<ErrorCode>(in.u32());
    r.message = in.string();
    return r;
  });
}

std::string encode_string_payload(const std::string& s) {
  return encode_payload([&s](ByteWriter& out) { out.string(s); });
}

std::string decode_string_payload(const std::string& payload) {
  return decode_payload<std::string>(
      payload, [](ByteReader& in) { return in.string(); });
}

std::string optional_string_payload(const std::string& payload) {
  return payload.empty() ? std::string() : decode_string_payload(payload);
}

}  // namespace atlas::serve
