// The atlas_serve daemon core: per-connection request handling and a
// batching dispatcher that runs predict handlers on the global thread pool.
//
// Threading model:
//
//   * one accept thread per listener (TCP and/or Unix-domain), polling with
//     a short timeout so a stop flag is observed without fd teardown races
//     (serve::ConnectionHost, the front end shared with atlas_router);
//   * one thread per live connection, reading frames and answering cheap
//     requests (ping/models/stats, and the admin load/unload registry
//     mutations) inline; predict requests are enqueued to
//     the dispatcher and the connection thread blocks on the response — so
//     responses stay in request order per connection. Streamed-workload
//     uploads (StreamBegin/Chunk/End) are assembled in per-connection state
//     on the same thread — size caps, sequence ordering and the request
//     deadline are enforced during assembly, and StreamEnd enqueues the
//     finished request to the dispatcher exactly like a Predict;
//   * one dispatcher thread that drains the queue in opportunistic batches
//     (whatever is queued when it wakes, capped at `batch_max`). Every
//     batch executes in three phases: per-job prework fans out on
//     util::ThreadPool::global() (parse, cache probes, stimulus), then all
//     jobs that missed the result cache run as ONE
//     AtlasModel::encode_batch call per model on the dispatcher thread —
//     so the pool's threads split the whole batch's distinct (sub-module,
//     cycle) segments, one segment per task, instead of one request each —
//     then per-job work fans out on the pool again: a miss runs the GBDT
//     heads over its batch-local embeddings and caches the prediction, a
//     hit only serializes the cached one. Scratch for the batched encode
//     and the heads comes from one thread_local util::Arena per thread,
//     reset at each use, so steady-state batches allocate nothing. Each
//     reply is bit-identical to a direct AtlasModel::predict at any batch
//     size and thread count — the determinism contract tests pin this.
//
// Failure containment: any malformed frame, undecodable payload, unknown
// model/workload, or handler exception turns into an Error response (or at
// worst a closed connection) and never unwinds the daemon. Shutdown —
// stop(), a client Shutdown request, or SIGTERM in the daemon binary —
// stops accepting, drains every queued request, answers it, then closes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "liberty/library.h"
#include "serve/connection_host.h"
#include "serve/feature_cache.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/stats.h"
#include "sim/external_trace.h"
#include "sim/simulator.h"
#include "util/hash.h"
#include "util/socket.h"

namespace atlas::serve {

/// Endpoints (host, port, unix_path) come from ListenConfig. The feature
/// cache's byte budget (512 MiB) and the streamed-trace cap
/// (kMaxStreamBytes) are fixed.
struct ServerConfig : ListenConfig {
  std::size_t cache_designs = 16;
  /// Cached predictions per design (the result layer's per-design bound;
  /// set by --cache-embeddings).
  std::size_t cache_embeddings_per_design = 8;
  /// Max predict requests dispatched as one thread-pool batch.
  std::size_t batch_max = 8;
  /// Test hook: sleep before dispatching each batch so deadline expiry can
  /// be exercised deterministically. 0 in production.
  int dispatch_delay_for_test_ms = 0;
  /// Test hook: sleep inside the predict handler so deadline expiry during
  /// compute (not queue wait) can be exercised. 0 in production.
  int handler_delay_for_test_ms = 0;
  /// Test hook: complete_fused_job raises a non-std exception after the
  /// handler ran, exercising the promise-fulfillment guarantee (a
  /// connection thread blocked on the job must get kInternal, never hang or
  /// see a broken promise). false in production.
  bool fault_inject_for_test = false;
  /// Honor LoadModel/UnloadModel requests. Off by default: runtime registry
  /// mutation is an operator capability, not something any client on the
  /// wire should have. Also gates the TraceDump request: a span ring can
  /// hold request-derived names, and draining it clears state other
  /// observers may want.
  bool allow_admin = false;
  /// Overload shedding watermark: when the number of admitted-but-unanswered
  /// predict jobs (queued + in flight) is at or past this, *cold* predict
  /// requests — design or prediction not cached, i.e. the encode-heavy ones
  /// — are answered kOverloaded immediately instead of queuing toward a
  /// deadline timeout. Warm requests are always admitted: a cache hit costs
  /// less than the client's retry would. 0 disables shedding.
  std::size_t shed_queue_depth = 0;
  /// Slow-request forensics threshold: a predict/stream request whose
  /// total time (enqueue -> reply encoded) exceeds this emits one warn-level
  /// structured log line with the per-phase ServerTiming breakdown, rate
  /// limited to ~1 line/second so a systemic slowdown cannot flood the log
  /// (every slow request still counts in atlas_serve_slow_requests_total).
  /// 0 disables the log (the counter stays off too).
  int slow_ms = 0;
  bool verbose = false;
};

class Server {
 public:
  Server(ServerConfig config, std::shared_ptr<ModelRegistry> registry);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind listeners and launch the accept/dispatcher threads. Throws
  /// util::SocketError if neither endpoint can be bound.
  void start();

  /// Drain queued requests, answer them, close connections, join all
  /// threads. Idempotent; also called by the destructor.
  void stop();

  /// True once a client Shutdown request was accepted (the daemon's main
  /// loop turns this into stop()).
  bool stop_requested() const { return host_.stop_requested(); }

  /// Block until stop_requested(); see ConnectionHost::wait_for_stop_request.
  void wait_for_stop_request(const std::function<bool()>& poll = {}) {
    host_.wait_for_stop_request(poll);
  }

  /// Resolved TCP port after an ephemeral bind. Sentinel -1 = TCP is
  /// disabled (UDS-only server); never a valid port value.
  int port() const { return host_.port(); }

  const ServerConfig& config() const { return config_; }
  const ModelRegistry& registry() const { return *registry_; }
  FeatureCacheStats cache_stats() const { return cache_.stats(); }
  /// Predict jobs admitted but not yet answered (queued + in flight). The
  /// dispatcher drains its queue into a forming batch immediately, so this
  /// — not the queue's length — is the load signal the shed watermark, the
  /// router's LoadReport piggyback and the health report use.
  std::size_t inflight_jobs() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  /// The snapshot a kHealth wire request answers with (also used by
  /// in-process tests and benches).
  HealthResponse health_snapshot() const;
  std::string stats_text() const;
  /// Prometheus text exposition of the process-wide metrics registry
  /// (request histograms, cache gauges, thread-pool counters, ...).
  static std::string metrics_text();

 private:
  struct PendingJob {
    PredictRequest request;
    /// Client-supplied toggle trace (streamed uploads); null for the
    /// built-in synthetic workloads.
    std::shared_ptr<const sim::ExternalTrace> trace;
    /// Stats endpoint this job is accounted under ("predict" | "stream").
    const char* endpoint = "predict";
    /// FNV-1a hash of the netlist text, the design-cache key component:
    /// the client's hash for design-by-hash streams (no text travels),
    /// otherwise stamped on the connection thread at admission (see
    /// admit_netlist) so the dispatcher never rehashes. A text the server
    /// has seen before is found in netlist_hashes_ by its SipHash, so FNV-1a
    /// runs over each distinct text once.
    std::uint64_t netlist_hash = 0;
    /// Predict: frame receipt. Stream: StreamBegin receipt, so the deadline
    /// spans assembly + queue wait + compute.
    std::chrono::steady_clock::time_point enqueued_at;
    /// Stamped by the dispatcher the moment this job's batch is formed.
    /// Splits the pre-handler interval into batch_wait_us (enqueue ->
    /// batch formed: stream assembly + waiting for the dispatcher to wake)
    /// and queue_us (batch formed -> handler entry: dispatch overhead +
    /// waiting for a pool slot).
    std::chrono::steady_clock::time_point dispatched_at{};
    /// Per-phase breakdown, filled by the predict pipeline (batch_wait_us +
    /// queue_us cover enqueue -> handler entry, so for streams they include
    /// assembly). Consumed by the slow-request log and, when the request
    /// asked (ext.want_timing), echoed in the reply frame's extension.
    ServerTiming timing;
    std::promise<Frame> result;
  };
  /// Per-connection streamed-upload assembly state (owned by the
  /// connection's handler; an abandoned stream dies with it).
  struct StreamState {
    bool active = false;
    StreamBeginRequest begin;
    std::string data;
    std::uint64_t chunks = 0;
    std::chrono::steady_clock::time_point started;

    void reset() {
      active = false;
      begin = StreamBeginRequest{};
      data.clear();
      data.shrink_to_fit();
      chunks = 0;
    }
  };

  /// Everything a predict job computes before (and carries past) the
  /// encoder: the pinned registry entry, resolved cache keys and lookups,
  /// and — on a result-cache miss — the toggle trace the encoder will
  /// consume and the embeddings it fills. Produced per job by
  /// prepare_predict (phase A of a fused batch), consumed by the grouped
  /// encode (phase B) and finish_predict (phase C); it lives only as long
  /// as its batch.
  struct PredictPrep {
    std::shared_ptr<const ModelEntry> entry;
    std::shared_ptr<const DesignArtifacts> design;
    /// The cached prediction on a hit; set by finish_predict on a miss.
    std::shared_ptr<const core::Prediction> pred;
    PredictionKey pred_key;
    std::uint64_t design_key = 0;
    std::uint32_t cache_flags = 0;
    /// Stimulus for the encoder; only populated when needs_encode.
    sim::ToggleTrace toggles;
    /// Filled by phase B's encode_batch; only used when needs_encode.
    core::DesignEmbeddings emb;
    /// Result-cache miss: the job joins phase B's encode_batch.
    bool needs_encode = false;
    std::chrono::steady_clock::time_point handler_start{};
    /// The request's trace context (minted root if the client sent none
    /// and tracing is on), installed around every phase that touches this
    /// job so its spans group per request across pool threads.
    obs::TraceContext ctx;
    /// Early terminal reply (validation error, deadline, cache race loss
    /// that cannot recover). When set, the job skips encode and finish.
    std::optional<Frame> reply;
  };

  /// Answer one frame of a connection (the ConnectionHost handler):
  /// control-plane requests inline, predicts through the dispatcher.
  Frame handle_frame(const Frame& frame, StreamState& stream);

  void dispatcher_loop();
  /// Execution of one dispatcher batch: phase A fans per-job prework
  /// out on the pool (prepare_predict under the job's trace scope), phase
  /// B runs ONE AtlasModel::encode_batch per distinct model over all jobs
  /// that missed the result cache (dispatcher thread; the pool threads
  /// split its (sub-module, cycle) segments), phase C fans per-job heads
  /// (misses only) + serialization + promise fulfillment back out on the
  /// pool. Scratch for the batched encode is the dispatcher thread's arena.
  void run_batch_fused(std::vector<std::shared_ptr<PendingJob>>& batch);
  /// Phase C worker: finish one prepared job and fulfill its promise.
  /// Never throws and never leaves the promise unfulfilled: the connection
  /// thread blocked in submit_and_wait must always get a reply (kInternal
  /// at worst), or it would hang / rethrow broken_promise and drop the
  /// whole connection.
  void complete_fused_job(PendingJob& job, PredictPrep& prep) noexcept;

  /// Enqueue a job for the dispatcher and block on its reply; returns the
  /// shutting-down error instead when the server is draining.
  Frame submit_and_wait(const std::shared_ptr<PendingJob>& job);

  /// Handle one Stream* frame against `stream`; returns the reply frame.
  Frame handle_stream_frame(const Frame& frame, StreamState& stream);

  /// Stamp job.netlist_hash on the connection thread: `client_hash` when
  /// nonzero (a design-by-hash stream), otherwise the FNV-1a of the
  /// request's netlist text from netlist_hashes_ (a keyed SipHash-1-3 pass
  /// when the text was seen recently, FNV-1a itself on first sight). The
  /// hashing time is charged to job.timing.cache_us.
  void admit_netlist(PendingJob& job, std::uint64_t client_hash);
  /// Admission check for the shed watermark: true when the request would be
  /// answered from the caches (design AND prediction present — const peeks,
  /// no LRU perturbation). Unknown models return true so the normal path
  /// answers kUnknownModel instead of a misleading kOverloaded.
  bool predict_is_warm(const PendingJob& job) const;
  /// Shed decision for one admitted predict job. Returns the kOverloaded
  /// error reply when the server is past config_.shed_queue_depth and the
  /// request is cold; nullopt admits it.
  std::optional<Frame> maybe_shed_predict(const PendingJob& job);
  /// Attach the LoadReport piggyback to `reply`'s extension when the
  /// request asked for it (want_queue_depth). `timing` drives the
  /// wait-dominated flag; pass the job's filled timing, or nullptr for
  /// replies that never reached the handler (the shed reply itself, which
  /// reports wait-dominated by definition).
  void maybe_attach_load(const FrameExt& request_ext, Frame& reply,
                         const ServerTiming* timing) const;

  /// First half of the predict pipeline: stamps the batch_wait/queue
  /// timing phases, pins the registry entry (model + library) for the whole
  /// request, so a concurrent unload/replace never invalidates running
  /// work, validates the workload, resolves the design (cache or parse) and
  /// probes the result cache. job.trace is the assembled client-supplied
  /// toggle trace for streamed requests, null for the synthetic w1/w2
  /// workloads. job.netlist_hash is the design-cache key component; a miss
  /// for a request without netlist text (a design-by-hash stream) answers
  /// kUnknownDesign (the StreamBegin-time check can race eviction, so it is
  /// re-checked here) instead of parsing. On a result miss it
  /// resolves/simulates the toggle trace into prep.toggles and sets
  /// prep.needs_encode; any terminal failure lands in prep.reply. Emits the
  /// per-request "handle_predict" span (the caller must have installed the
  /// job's trace scope). Fills job.timing phases up to the encoder.
  void prepare_predict(PendingJob& job, PredictPrep& prep);
  /// Second half. On a miss: GBDT heads over prep.emb (scratch from the
  /// calling thread's arena) and the first-insert-wins cache insert, after
  /// which the job serves the entry the cache returned. On a hit
  /// (prep.pred already set) no heads run and timing.predict_us stays 0.
  /// Then response assembly, serialization and the timing extension.
  Frame finish_predict(PendingJob& job, PredictPrep& prep);

  /// Emit the slow-request log line / counter for a finished job if it
  /// crossed config_.slow_ms.
  void maybe_log_slow(const PendingJob& job, bool is_error);

  /// LoadModel / UnloadModel handlers (connection-thread inline; gated by
  /// config_.allow_admin). Never throw; failures become Error replies.
  Frame handle_load_model(const std::string& payload);
  Frame handle_unload_model(const std::string& payload);

  ServerConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  FeatureCache cache_;
  /// text -> FNV-1a for admit_netlist; holds no text, so no memory past its
  /// fixed entry count.
  util::NetlistHashMemo netlist_hashes_;
  ServerStats stats_;

  std::thread dispatcher_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<PendingJob>> queue_;
  /// Jobs admitted (enqueued) but not yet answered; see inflight_jobs().
  std::atomic<std::size_t> inflight_{0};

  /// trace_now_us() of the last slow-request log line (0 = none yet);
  /// CAS-guarded so concurrent slow requests emit at most ~1 line/second.
  std::atomic<std::uint64_t> last_slow_log_us_{0};

  /// Set under queue_mu_ by stop(): the dispatcher drains and exits, and
  /// submit_and_wait answers kShuttingDown from then on.
  std::atomic<bool> stopping_{false};

  /// Declared last so its connection threads are joined before the state
  /// they serve is destroyed.
  ConnectionHost host_;
};

}  // namespace atlas::serve
