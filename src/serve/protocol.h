// Wire protocol for the atlas_serve daemon.
//
// Every message is one length-prefixed binary frame:
//
//   offset  size  field
//   0       4     magic "ATSP"
//   4       4     message type (u32, little-endian like all payloads)
//   8       8     body length in bytes (u64): payload + extension
//   16      4     extension length in bytes (u32), <= body length
//   20      ...   payload (type-specific, util::ByteWriter fields)
//   ...     ...   extension block (FrameExt), the last bytes of the body
//
// The header is fixed-size so a reader can validate the magic and both
// declared lengths *before* allocating: bodies above the reader's cap
// (kDefaultMaxFrameBytes unless the caller passes a smaller one) and
// extensions above kMaxFrameExtBytes (or longer than the body) are
// rejected without reading further, and payloads and the extension are
// decoded with util::ByteReader, which checks every declared length against
// the bytes left before allocating, so truncated or hostile frames surface
// as ProtocolError — never as an allocation bomb or a crash.
//
// Requests: Ping, Predict, ListModels, Stats, Shutdown, Metrics,
// StreamBegin, StreamChunk, StreamEnd, LoadModel, UnloadModel, Health,
// TraceDump.
// Responses: Pong, PredictOk, ModelList, StatsText, ShutdownOk,
// MetricsText, StreamAck, AdminOk, HealthReport, TraceJson, Error.
// One response frame per request frame, in request order per connection.
//
// Per-request metadata travels in the frame's extension block, never in a
// payload: the distributed trace context and the want_timing /
// want_queue_depth flags on requests, the per-phase ServerTiming and the
// LoadReport on replies (FrameExt). Any frame type may carry one; an empty
// block is zero bytes. Payload codecs therefore read exactly their own
// fields, and a relay can rewrite the block without touching the payload.
// Metrics and Stats requests accept an optional string payload ("fleet" /
// "json") selecting an alternate rendering; an empty payload selects the
// default and an undecodable one answers kBadRequest.
//
// Health is the readiness probe a routing tier keys decisions off: unlike
// ping (which only proves the accept loop is alive) it reports registry
// generation, feature-cache occupancy, admitted-job depth and drain
// state, so a prober can tell "up", "up but draining" and "up but
// overloaded" apart without scraping the full metrics text.
//
// LoadModel / UnloadModel mutate the daemon's model registry at runtime
// (pick up a freshly fine-tuned artifact, retire an old one) and are only
// honored when the daemon was started with --allow-admin — otherwise they
// answer kAdminDisabled. Load failures (unreadable path, corrupt artifact,
// bad Liberty file) answer kBadRequest and leave the registry untouched;
// the connection survives either way.
//
// The stream family uploads a client-supplied per-cycle toggle trace (VCD
// subset) too large for one frame: StreamBegin declares the model, netlist,
// cycle count and total trace size; each StreamChunk carries the next slice
// (sequence-numbered, acknowledged); StreamEnd closes the upload and is
// answered with the prediction itself (PredictOk) or an Error. Assembly
// state is per-connection, bounded by the declared size (itself capped),
// ordered by sequence number, and subject to the request deadline from the
// StreamBegin frame onward — a malformed, interleaved or abandoned stream
// costs one error reply or a dropped connection, never daemon state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "power/power_analyzer.h"
#include "util/socket.h"

namespace atlas::serve {

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kFrameMagic[4] = {'A', 'T', 'S', 'P'};
inline constexpr std::size_t kFrameHeaderBytes = 20;
inline constexpr std::size_t kDefaultMaxFrameBytes = 64ull << 20;  // 64 MiB
/// Largest streamed trace one request may declare: atlas_serve rejects a
/// bigger StreamBegin before any chunk is read, and atlas_router, whose
/// replay buffer it bounds, applies the same cap.
inline constexpr std::size_t kMaxStreamBytes = 256ull << 20;  // 256 MiB
/// Largest extension block a reader accepts (the fullest block is 100
/// bytes); checked before the frame body is allocated.
inline constexpr std::size_t kMaxFrameExtBytes = 128;

enum class MsgType : std::uint32_t {
  // Requests.
  kPing = 1,
  kPredict = 2,
  kListModels = 3,
  kStats = 4,
  kShutdown = 5,
  kMetrics = 6,
  kStreamBegin = 7,
  kStreamChunk = 8,
  kStreamEnd = 9,
  kLoadModel = 10,
  kUnloadModel = 11,
  kHealth = 12,
  /// Admin-gated: drain the process's span ring and answer kTraceJson with
  /// the Chrome trace JSON (each recorded event is returned exactly once
  /// across successive dumps). The router additionally fans this out to
  /// every backend and answers with the merged fleet trace.
  kTraceDump = 13,
  // Responses.
  kPong = 100,
  kPredictOk = 101,
  kModelList = 102,
  kStatsText = 103,
  kShutdownOk = 104,
  kMetricsText = 105,
  kStreamAck = 106,
  kAdminOk = 107,
  kHealthReport = 108,
  kTraceJson = 109,
  kError = 199,
};

enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,       // undecodable payload / bad frame
  kUnknownModel = 2,     // model name not in the registry
  kUnknownWorkload = 3,  // workload name not recognized
  kDeadlineExceeded = 4, // request expired (queued, streaming, or computing)
  kShuttingDown = 5,     // server is draining
  kInternal = 6,         // handler threw (bad netlist, ...)
  kStreamProtocol = 7,   // stream state violation (order, size, no begin)
  kAdminDisabled = 8,    // load/unload without --allow-admin
  kUnknownDesign = 9,    // design_hash not in the cache; re-send the netlist
  /// Admission control: the server is past its cold-request depth watermark
  /// and this request would need encode-heavy work (design or prediction not
  /// cached). The request was not queued; retry elsewhere or later. Warm
  /// requests are never shed — answering from the cache is cheaper than the
  /// round trip it would take the client to go anywhere else.
  kOverloaded = 10,
};

/// Stable enum-style name ("kUnknownModel", ...) for diagnostics and smoke
/// scripts that assert on error classes; values outside the enum render as
/// "kUnknownErrorCode".
const char* error_code_name(ErrorCode code);

/// Per-phase server-side breakdown of one predict request, in
/// microseconds. Carried in the reply frame's extension block when the
/// request asked for it (want_timing), and logged by the server's
/// slow-request log. Phases are disjoint; total_us additionally covers glue
/// between them, so the sum of phases is <= total_us.
///
/// batch_wait_us and queue_us split what one "queue" phase used to
/// double-count: time parked in the dispatcher queue while a batch formed
/// (batch_wait_us; for streamed requests this also spans chunk assembly,
/// since the clock starts at StreamBegin receipt) versus handoff from batch
/// formation to the handler actually starting (queue_us). The split is what
/// makes the reported phases add up to the end-to-end latency.
struct ServerTiming {
  std::uint64_t batch_wait_us = 0;  // enqueue -> dispatcher batch formed
  std::uint64_t queue_us = 0;       // batch formed -> handler entry
  std::uint64_t cache_us = 0;       // feature-cache lookups
  std::uint64_t encode_us = 0;      // parse/sim/feature/encoder work
  std::uint64_t predict_us = 0;     // GBDT heads; 0 on a result-cache hit
  std::uint64_t serialize_us = 0;   // response payload encode
  std::uint64_t total_us = 0;       // enqueue -> response encoded
};

/// Per-response load piggyback (want_queue_depth): the server attaches it
/// to the reply of a request that asked — Error replies included, so a shed
/// reports the depth that caused it — and the routing tier clears it before
/// relaying, so routed replies stay bit-identical to direct serving.
///
/// `load` counts jobs admitted but not yet answered (queued + in flight),
/// which is the signal a replica-routing policy needs: the dispatcher
/// drains its queue into a forming batch immediately, so its queue alone
/// reads ~0 even on a saturated shard. HealthResponse::queue_depth carries
/// the same count.
struct LoadReport {
  std::uint64_t load = 0;
  std::uint64_t flags = 0;

  /// flags bit 0: the serving-side phase split for this request was
  /// dominated by waiting (batch_wait_us + queue_us > half of total_us) —
  /// the slow-log signal the router's shed policy keys off.
  static constexpr std::uint64_t kFlagWaitDominated = 1ull << 0;
  bool wait_dominated() const { return (flags & kFlagWaitDominated) != 0; }
};

/// The frame extension block. On the wire it is a u32 presence bitmask
/// followed by the present fields in bit order (trace ids, timing, load);
/// the flags live in the mask itself. An all-absent block encodes as zero
/// bytes. Decoding rejects unknown mask bits, an explicit empty mask and
/// any length mismatch with ProtocolError — there is no version tag and
/// nothing is skipped.
struct FrameExt {
  /// Distributed trace context. `trace.span_id` is the *sender's* current
  /// span — the receiver installs the context as-is and its spans parent
  /// under it. Sent only when valid.
  obs::TraceContext trace;
  /// Request: attach the per-phase ServerTiming to the PredictOk reply
  /// (independent of tracing/sampling).
  bool want_timing = false;
  /// Request: attach a LoadReport to the reply. Set by the routing tier on
  /// forwarded predicts; this is what makes its per-backend load signal
  /// request-fresh instead of probe-fresh.
  bool want_queue_depth = false;
  /// Reply: present iff the request set want_timing and the reply is
  /// PredictOk.
  std::optional<ServerTiming> timing;
  /// Reply: present iff the request set want_queue_depth.
  std::optional<LoadReport> load;
};

struct Frame {
  Frame() = default;
  Frame(MsgType t, std::string p, FrameExt e = {})
      : type(t), payload(std::move(p)), ext(std::move(e)) {}

  MsgType type = MsgType::kPing;
  std::string payload;
  FrameExt ext;
};

/// Serialize a frame (header + payload + extension block) into wire bytes.
std::string encode_frame(MsgType type, const std::string& payload,
                         const FrameExt& ext = {});

/// Write one frame to a socket.
void write_frame(util::Socket& sock, MsgType type, const std::string& payload,
                 const FrameExt& ext = {});

/// Read one frame. Returns false on clean EOF at a frame boundary. Throws
/// ProtocolError on bad magic, an unreasonable declared body length
/// (checked against `max_frame_bytes`) or extension length (checked
/// against kMaxFrameExtBytes and the body length) — both before anything is
/// allocated — on truncation, or on a malformed extension block. The body
/// is read with one recv; `out.payload` excludes the extension bytes.
bool read_frame(util::Socket& sock, Frame& out,
                std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

// ---- Request payloads -----------------------------------------------------

struct PredictRequest {
  std::string model;            // registry name
  std::string netlist_verilog;  // gate-level structural Verilog text
  std::string workload;         // "w1" | "w2"
  std::int32_t cycles = 300;
  std::uint32_t deadline_ms = 0;     // 0 = no deadline
  bool want_submodules = false;      // include per-sub-module rows
  /// Not part of the payload: serve::Client sends it as the request
  /// frame's extension block and the server fills it from there.
  FrameExt ext;

  std::string encode() const;
  static PredictRequest decode(const std::string& payload);
};

/// Trace encodings accepted by the stream family. decode() rejects any
/// other value with ProtocolError (answered as kBadRequest) so an unknown
/// format can never misparse chunk bytes later.
enum class TraceFormat : std::uint32_t {
  kVcdText = 1,      // the write_vcd / parse_vcd subset
  kToggleDelta = 2,  // binary ATDT toggle-delta (sim/delta_trace.h)
};

/// Opens a streamed-workload upload. The prediction parameters travel here;
/// the trace bytes follow in StreamChunk frames.
struct StreamBeginRequest {
  std::string model;            // registry name
  std::string netlist_verilog;  // gate-level structural Verilog text
  TraceFormat format = TraceFormat::kVcdText;
  /// Expected trace cycle count; 0 = accept whatever the trace contains.
  /// Nonzero values are enforced against the parsed trace.
  std::int32_t cycles = 0;
  std::uint32_t deadline_ms = 0;  // 0 = none; runs from StreamBegin receipt
  bool want_submodules = false;
  /// Declared total trace size; chunks may not exceed it and StreamEnd
  /// checks the sum matches. Capped at kMaxStreamBytes.
  std::uint64_t trace_bytes = 0;
  /// Design-by-hash: nonzero = reference an already-cached design by the
  /// FNV-1a hash of its Verilog text instead of re-sending it (leave
  /// netlist_verilog empty). A hash the server's cache doesn't hold answers
  /// kUnknownDesign — at StreamBegin when possible, or at predict time if
  /// the entry was evicted mid-upload — and the client falls back to a full
  /// upload. 0 = not used.
  std::uint64_t design_hash = 0;
  /// Not part of the payload: travels as the StreamBegin frame's extension
  /// block, and its flags govern the StreamEnd reply.
  FrameExt ext;

  std::string encode() const;
  static StreamBeginRequest decode(const std::string& payload);
};

struct StreamChunk {
  std::uint64_t seq = 0;  // 0-based, must arrive consecutively
  std::string data;

  std::string encode() const;
  static StreamChunk decode(const std::string& payload);
};

struct StreamEndRequest {
  std::uint64_t total_chunks = 0;
  std::uint64_t total_bytes = 0;  // must equal the assembled size

  std::string encode() const;
  static StreamEndRequest decode(const std::string& payload);
};

/// Load (or replace) a model artifact on the server at runtime. Paths are
/// resolved on the *server's* filesystem. Answered with AdminOk or Error.
struct LoadModelRequest {
  std::string name;          // registry name to publish under
  std::string path;          // AtlasModel artifact on the server
  std::string library_path;  // Liberty file; empty = server default library

  std::string encode() const;
  static LoadModelRequest decode(const std::string& payload);
};

/// Retire a registry name. In-flight requests pinned to the old entry still
/// complete; new requests answer kUnknownModel. Answered with AdminOk.
struct UnloadModelRequest {
  std::string name;

  std::string encode() const;
  static UnloadModelRequest decode(const std::string& payload);
};

// ---- Response payloads ----------------------------------------------------

/// Acknowledges StreamBegin (seq = 0, received = 0) and each StreamChunk
/// (seq = the chunk's sequence number, received = assembled bytes so far).
struct StreamAck {
  std::uint64_t seq = 0;
  std::uint64_t received_bytes = 0;

  std::string encode() const;
  static StreamAck decode(const std::string& payload);
};

/// Cache-path flags reported back to the client (and asserted by tests).
inline constexpr std::uint32_t kCacheHitDesign = 1u << 0;      // graphs reused
// Result-cache hit: encoder and GBDT heads skipped (the name predates the
// layer caching the prediction instead of the embeddings).
inline constexpr std::uint32_t kCacheHitEmbeddings = 1u << 1;

struct PredictResponse {
  std::uint32_t cache_flags = 0;
  double server_seconds = 0.0;  // handler wall-clock on the server
  std::int32_t num_cycles = 0;
  std::uint64_t num_submodules = 0;
  std::vector<power::GroupPower> design;     // [cycle]
  std::vector<power::GroupPower> submodule;  // [cycle*nsm + sm], optional
  /// Not part of the payload: serve::Client fills these from the reply
  /// frame's extension block (FrameExt::timing), present only when the
  /// request set ext.want_timing.
  bool has_timing = false;
  ServerTiming timing;
  /// The reply carried a LoadReport (requested through Client::predict's
  /// load_out, which receives it). False through a router, which strips it.
  bool has_load = false;

  bool design_cache_hit() const { return cache_flags & kCacheHitDesign; }
  bool embedding_cache_hit() const { return cache_flags & kCacheHitEmbeddings; }

  std::string encode() const;
  /// encode()'s bytes with `design_rows` and `submodule_rows` in place of
  /// this reply's own vectors, so a server writes the rows of a cached
  /// prediction straight into the payload instead of copying them into a
  /// PredictResponse first.
  std::string encode_with_rows(
      std::span<const power::GroupPower> design_rows,
      std::span<const power::GroupPower> submodule_rows) const;
  static PredictResponse decode(const std::string& payload);
};

struct ModelInfo {
  std::string name;
  std::uint64_t encoder_dim = 0;
  /// Name of the Liberty library the model is bound to.
  std::string library;
  /// Registry generation of the current binding (bumped by every reload).
  std::uint64_t generation = 0;
  /// liberty::content_hash of that library — the second component of the
  /// design-cache key. A routing tier mixes this with the netlist content
  /// hash so one (design, substrate) pair lives on exactly one shard, and
  /// model names sharing a substrate share that shard's parsed designs.
  std::uint64_t library_hash = 0;
};

struct ModelListResponse {
  std::vector<ModelInfo> models;

  std::string encode() const;
  static ModelListResponse decode(const std::string& payload);
};

/// Rich readiness report (kHealth -> kHealthReport). Every field is a value
/// the server already tracks (registry counter, feature-cache occupancy,
/// dispatcher queue) — this request just snapshots them in one frame.
struct HealthResponse {
  /// Registry-wide load counter: bumps on every model (re)load, so a
  /// routing tier can detect "this shard saw an admin change".
  std::uint64_t registry_generation = 0;
  std::uint64_t num_models = 0;
  /// Feature-cache occupancy: design entries and approximate bytes held.
  std::uint64_t cache_designs = 0;
  std::uint64_t cache_total_bytes = 0;
  std::uint64_t cache_embedding_bytes = 0;
  /// Predict jobs admitted but not yet answered (queued + in flight): the
  /// same count as LoadReport::load, so a probe refreshes a shard's load
  /// with the figure its data-path replies report.
  std::uint64_t queue_depth = 0;
  /// True once the server started draining (stop requested or stopping):
  /// answer what's in flight, send no new work here.
  bool draining = false;

  std::string encode() const;
  static HealthResponse decode(const std::string& payload);
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  std::string encode() const;
  static ErrorResponse decode(const std::string& payload);
};

/// StatsText and Pong/ShutdownOk payloads are a bare string / empty.
std::string encode_string_payload(const std::string& s);
std::string decode_string_payload(const std::string& payload);

/// The optional mode selector of Stats and Metrics requests: an empty
/// payload is the default rendering (""), anything else must decode as a
/// string payload (ProtocolError otherwise, answered as kBadRequest).
std::string optional_string_payload(const std::string& payload);

}  // namespace atlas::serve
