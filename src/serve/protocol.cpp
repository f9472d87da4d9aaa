#include "serve/protocol.h"

#include <cstring>
#include <sstream>
#include <string_view>

#include "util/serialize.h"

namespace atlas::serve {
namespace {

using util::read_f64;
using util::read_string;
using util::read_u32;
using util::read_u64;
using util::write_f64;
using util::write_string;
using util::write_u32;
using util::write_u64;

void write_group_power_rows(std::ostream& os,
                            const std::vector<power::GroupPower>& rows) {
  write_u64(os, rows.size());
  for (const power::GroupPower& g : rows) {
    write_f64(os, g.comb);
    write_f64(os, g.reg);
    write_f64(os, g.clock);
    write_f64(os, g.memory);
  }
}

std::vector<power::GroupPower> read_group_power_rows(std::istream& is) {
  return util::read_vector<power::GroupPower>(is, [](std::istream& s) {
    power::GroupPower g;
    g.comb = read_f64(s);
    g.reg = read_f64(s);
    g.clock = read_f64(s);
    g.memory = read_f64(s);
    return g;
  });
}

template <typename Fn>
std::string encode_payload(Fn&& fn) {
  std::ostringstream os(std::ios::binary);
  fn(os);
  return std::move(os).str();
}

template <typename T, typename Fn>
T decode_payload(const std::string& payload, Fn&& fn) {
  std::istringstream is(payload, std::ios::binary);
  try {
    T value = fn(is);
    // Payloads carry exactly their own fields; metadata rides the frame
    // extension, so trailing bytes can only be corruption.
    if (is.peek() != std::istream::traits_type::eof()) {
      throw ProtocolError("trailing bytes after payload fields");
    }
    return value;
  } catch (const util::SerializeError& e) {
    throw ProtocolError(std::string("bad payload: ") + e.what());
  }
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

template <typename T>
void append_pod(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

/// Appends the encoded block for `ext` (nothing when every field is absent).
void append_frame_ext(std::string& out, const FrameExt& ext) {
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
  append_pod(out, mask);
  if (mask & kExtTrace) {
    append_pod(out, ext.trace.trace_hi);
    append_pod(out, ext.trace.trace_lo);
    append_pod(out, ext.trace.span_id);
  }
  if (const auto& t = ext.timing) {
    for (const std::uint64_t v : {t->batch_wait_us, t->queue_us, t->cache_us,
                                  t->encode_us, t->predict_us, t->serialize_us,
                                  t->total_us}) {
      append_pod(out, v);
    }
  }
  if (ext.load) {
    append_pod(out, ext.load->load);
    append_pod(out, ext.load->flags);
  }
}

/// Bounds-checked reads over the extension bytes, in the same byte order
/// append_pod writes.
class ExtReader {
 public:
  explicit ExtReader(std::string_view bytes) : rest_(bytes) {}

  template <typename T>
  T read() {
    if (rest_.size() < sizeof(T)) {
      throw ProtocolError("frame extension shorter than its presence mask");
    }
    T v;
    std::memcpy(&v, rest_.data(), sizeof(T));
    rest_.remove_prefix(sizeof(T));
    return v;
  }
  bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

FrameExt decode_frame_ext(std::string_view bytes) {
  FrameExt ext;
  if (bytes.empty()) return ext;
  ExtReader in(bytes);
  const std::uint32_t mask = in.read<std::uint32_t>();
  if (mask == 0 || (mask & ~kExtKnownBits) != 0) {
    throw ProtocolError("bad frame extension presence mask " +
                        std::to_string(mask));
  }
  if (mask & kExtTrace) {
    ext.trace.trace_hi = in.read<std::uint64_t>();
    ext.trace.trace_lo = in.read<std::uint64_t>();
    ext.trace.span_id = in.read<std::uint64_t>();
    ext.trace.sampled = (mask & kExtSampled) != 0;
  }
  ext.want_timing = (mask & kExtWantTiming) != 0;
  ext.want_queue_depth = (mask & kExtWantQueueDepth) != 0;
  if (mask & kExtTiming) {
    ServerTiming& t = ext.timing.emplace();
    for (std::uint64_t* v : {&t.batch_wait_us, &t.queue_us, &t.cache_us,
                             &t.encode_us, &t.predict_us, &t.serialize_us,
                             &t.total_us}) {
      *v = in.read<std::uint64_t>();
    }
  }
  if (mask & kExtLoad) {
    LoadReport& r = ext.load.emplace();
    r.load = in.read<std::uint64_t>();
    r.flags = in.read<std::uint64_t>();
  }
  if (!in.done()) {
    throw ProtocolError("frame extension longer than its presence mask");
  }
  return ext;
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
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kMaxFrameExtBytes);
  out.resize(kFrameHeaderBytes);
  out += payload;
  append_frame_ext(out, ext);
  const std::uint32_t t = static_cast<std::uint32_t>(type);
  const std::uint64_t body = out.size() - kFrameHeaderBytes;
  const std::uint32_t ext_len =
      static_cast<std::uint32_t>(body - payload.size());
  std::memcpy(out.data(), kFrameMagic, 4);
  std::memcpy(out.data() + 4, &t, 4);
  std::memcpy(out.data() + 8, &body, 8);
  std::memcpy(out.data() + 16, &ext_len, 4);
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
  std::uint32_t type = 0;
  std::uint64_t len = 0;
  std::uint32_t ext_len = 0;
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  std::memcpy(&ext_len, header + 16, 4);
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
  return encode_payload([this](std::ostream& os) {
    write_string(os, model);
    write_string(os, netlist_verilog);
    write_string(os, workload);
    write_u32(os, static_cast<std::uint32_t>(cycles));
    write_u32(os, deadline_ms);
    write_u32(os, want_submodules ? 1u : 0u);
  });
}

PredictRequest PredictRequest::decode(const std::string& payload) {
  return decode_payload<PredictRequest>(payload, [](std::istream& is) {
    PredictRequest r;
    r.model = read_string(is);
    r.netlist_verilog = read_string(is);
    r.workload = read_string(is);
    r.cycles = static_cast<std::int32_t>(read_u32(is));
    r.deadline_ms = read_u32(is);
    r.want_submodules = read_u32(is) != 0;
    return r;
  });
}

std::string StreamBeginRequest::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_string(os, model);
    write_string(os, netlist_verilog);
    write_u32(os, static_cast<std::uint32_t>(format));
    write_u32(os, static_cast<std::uint32_t>(cycles));
    write_u32(os, deadline_ms);
    write_u32(os, want_submodules ? 1u : 0u);
    write_u64(os, trace_bytes);
    write_u64(os, design_hash);
  });
}

StreamBeginRequest StreamBeginRequest::decode(const std::string& payload) {
  return decode_payload<StreamBeginRequest>(payload, [](std::istream& is) {
    StreamBeginRequest r;
    r.model = read_string(is);
    r.netlist_verilog = read_string(is);
    const std::uint32_t fmt = read_u32(is);
    if (fmt != static_cast<std::uint32_t>(TraceFormat::kVcdText) &&
        fmt != static_cast<std::uint32_t>(TraceFormat::kToggleDelta)) {
      throw ProtocolError("unknown trace format " + std::to_string(fmt));
    }
    r.format = static_cast<TraceFormat>(fmt);
    r.cycles = static_cast<std::int32_t>(read_u32(is));
    r.deadline_ms = read_u32(is);
    r.want_submodules = read_u32(is) != 0;
    r.trace_bytes = read_u64(is);
    r.design_hash = read_u64(is);
    return r;
  });
}

std::string StreamChunk::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, seq);
    write_string(os, data);
  });
}

StreamChunk StreamChunk::decode(const std::string& payload) {
  return decode_payload<StreamChunk>(payload, [](std::istream& is) {
    StreamChunk c;
    c.seq = read_u64(is);
    c.data = read_string(is);
    return c;
  });
}

std::string StreamEndRequest::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, total_chunks);
    write_u64(os, total_bytes);
  });
}

StreamEndRequest StreamEndRequest::decode(const std::string& payload) {
  return decode_payload<StreamEndRequest>(payload, [](std::istream& is) {
    StreamEndRequest r;
    r.total_chunks = read_u64(is);
    r.total_bytes = read_u64(is);
    return r;
  });
}

std::string LoadModelRequest::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_string(os, name);
    write_string(os, path);
    write_string(os, library_path);
  });
}

LoadModelRequest LoadModelRequest::decode(const std::string& payload) {
  return decode_payload<LoadModelRequest>(payload, [](std::istream& is) {
    LoadModelRequest r;
    r.name = read_string(is);
    r.path = read_string(is);
    r.library_path = read_string(is);
    return r;
  });
}

std::string UnloadModelRequest::encode() const {
  return encode_payload(
      [this](std::ostream& os) { write_string(os, name); });
}

UnloadModelRequest UnloadModelRequest::decode(const std::string& payload) {
  return decode_payload<UnloadModelRequest>(payload, [](std::istream& is) {
    UnloadModelRequest r;
    r.name = read_string(is);
    return r;
  });
}

std::string StreamAck::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, seq);
    write_u64(os, received_bytes);
  });
}

StreamAck StreamAck::decode(const std::string& payload) {
  return decode_payload<StreamAck>(payload, [](std::istream& is) {
    StreamAck a;
    a.seq = read_u64(is);
    a.received_bytes = read_u64(is);
    return a;
  });
}

std::string PredictResponse::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u32(os, cache_flags);
    write_f64(os, server_seconds);
    write_u32(os, static_cast<std::uint32_t>(num_cycles));
    write_u64(os, num_submodules);
    write_group_power_rows(os, design);
    write_group_power_rows(os, submodule);
  });
}

PredictResponse PredictResponse::decode(const std::string& payload) {
  return decode_payload<PredictResponse>(payload, [](std::istream& is) {
    PredictResponse r;
    r.cache_flags = read_u32(is);
    r.server_seconds = read_f64(is);
    r.num_cycles = static_cast<std::int32_t>(read_u32(is));
    r.num_submodules = read_u64(is);
    r.design = read_group_power_rows(is);
    r.submodule = read_group_power_rows(is);
    return r;
  });
}

std::string ModelListResponse::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, models.size());
    for (const ModelInfo& m : models) {
      write_string(os, m.name);
      write_u64(os, m.encoder_dim);
      write_string(os, m.library);
      write_u64(os, m.generation);
      write_u64(os, m.library_hash);
    }
  });
}

ModelListResponse ModelListResponse::decode(const std::string& payload) {
  return decode_payload<ModelListResponse>(payload, [](std::istream& is) {
    ModelListResponse r;
    r.models = util::read_vector<ModelInfo>(is, [](std::istream& s) {
      ModelInfo m;
      m.name = read_string(s);
      m.encoder_dim = read_u64(s);
      m.library = read_string(s);
      m.generation = read_u64(s);
      m.library_hash = read_u64(s);
      return m;
    });
    return r;
  });
}

std::string HealthResponse::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, registry_generation);
    write_u64(os, num_models);
    write_u64(os, cache_designs);
    write_u64(os, cache_total_bytes);
    write_u64(os, cache_embedding_bytes);
    write_u64(os, queue_depth);
    write_u32(os, draining ? 1u : 0u);
  });
}

HealthResponse HealthResponse::decode(const std::string& payload) {
  return decode_payload<HealthResponse>(payload, [](std::istream& is) {
    HealthResponse h;
    h.registry_generation = read_u64(is);
    h.num_models = read_u64(is);
    h.cache_designs = read_u64(is);
    h.cache_total_bytes = read_u64(is);
    h.cache_embedding_bytes = read_u64(is);
    h.queue_depth = read_u64(is);
    h.draining = read_u32(is) != 0;
    return h;
  });
}

std::string ErrorResponse::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u32(os, static_cast<std::uint32_t>(code));
    write_string(os, message);
  });
}

ErrorResponse ErrorResponse::decode(const std::string& payload) {
  return decode_payload<ErrorResponse>(payload, [](std::istream& is) {
    ErrorResponse r;
    r.code = static_cast<ErrorCode>(read_u32(is));
    r.message = read_string(is);
    return r;
  });
}

std::string encode_string_payload(const std::string& s) {
  return encode_payload([&s](std::ostream& os) { write_string(os, s); });
}

std::string decode_string_payload(const std::string& payload) {
  return decode_payload<std::string>(
      payload, [](std::istream& is) { return read_string(is); });
}

std::string optional_string_payload(const std::string& payload) {
  return payload.empty() ? std::string() : decode_string_payload(payload);
}

}  // namespace atlas::serve
