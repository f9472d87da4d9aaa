#include "serve/server.h"

#include <algorithm>
#include <optional>
#include <span>

#include "atlas/preprocess.h"
#include "graph/submodule_graph.h"
#include "netlist/verilog_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/delta_trace.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace atlas::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            since)
          .count());
}

/// Largest cycle count a single request may ask the server to simulate.
constexpr std::int32_t kMaxRequestCycles = 1 << 20;

/// Byte budget for the feature cache (designs + predictions, approximate).
/// Eviction weighs entries by size, so one huge design cannot pin memory
/// many cheap hot designs would use better.
constexpr std::size_t kCacheMaxBytes = 512ull << 20;  // 512 MiB

/// Live dispatcher queue depth: jobs admitted but not yet in a batch.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("atlas_serve_queue_depth");
  return g;
}

/// Admitted-but-unanswered predict jobs (queued + in flight) — the load
/// signal the shed watermark and the LoadReport piggyback read.
obs::Gauge& inflight_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("atlas_serve_inflight_jobs");
  return g;
}

/// Cold requests answered kOverloaded by the shed watermark.
obs::Counter& shed_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("atlas_serve_shed_total");
  return c;
}

/// Scratch for the batched encode (dispatcher thread) and the GBDT heads
/// (whichever thread runs finish_predict). Each thread keeps its own arena
/// and its blocks, so steady-state batches allocate nothing; the two uses
/// never overlap on one thread (nested pool work runs inline). Reset on
/// every hand-out, so a use that threw midway leaves nothing behind.
util::Arena& thread_scratch() {
  thread_local util::Arena arena;
  arena.reset();
  return arena;
}

}  // namespace

Server::Server(ServerConfig config, std::shared_ptr<ModelRegistry> registry)
    : config_(std::move(config)),
      registry_(std::move(registry)),
      cache_(config_.cache_designs, config_.cache_embeddings_per_design,
             kCacheMaxBytes),
      host_("serve", config_, config_.verbose) {}

Server::~Server() { stop(); }

void Server::start() {
  host_.bind();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  host_.start([this]() -> ConnectionHost::FrameHandler {
    // Per-connection: an abandoned stream dies with its connection.
    auto stream = std::make_shared<StreamState>();
    return [this, stream](Frame& frame) {
      return handle_frame(frame, *stream);
    };
  });
}

void Server::stop() {
  if (!host_.running()) return;
  {
    // stopping_ is flipped under the queue mutex so the dispatcher cannot
    // exit between a connection's stopping_ check and its enqueue — every
    // accepted predict request is drained and answered.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  host_.stop_accepting();
  if (dispatcher_.joinable()) dispatcher_.join();
  // All queued work is answered; unblock idle connection readers.
  host_.close_connections();
}

std::string Server::stats_text() const {
  return stats_.render_text(cache_.stats());
}

HealthResponse Server::health_snapshot() const {
  HealthResponse h;
  h.registry_generation = registry_->generation();
  h.num_models = registry_->size();
  h.cache_designs = cache_.num_designs();
  h.cache_total_bytes = cache_.total_bytes();
  h.cache_embedding_bytes = cache_.prediction_bytes();
  h.queue_depth = inflight_jobs();
  h.draining = stopping_.load() || host_.stop_requested();
  return h;
}

std::string Server::metrics_text() {
  return obs::Registry::global().render_prometheus();
}

Frame Server::handle_frame(const Frame& frame, StreamState& stream) {
  const Clock::time_point received_at = Clock::now();
  // Control-plane replies are accounted here under `endpoint`; predicts
  // that reach the dispatcher are accounted when their job completes.
  const char* endpoint = nullptr;
  Frame reply;
  switch (frame.type) {
    case MsgType::kPing:
      reply = {MsgType::kPong, encode_string_payload("pong")};
      endpoint = "ping";
      break;
    case MsgType::kListModels: {
      reply = {MsgType::kModelList,
               ModelListResponse{registry_->list()}.encode()};
      endpoint = "models";
      break;
    }
    case MsgType::kHealth:
      reply = {MsgType::kHealthReport, health_snapshot().encode()};
      endpoint = "health";
      break;
    case MsgType::kStats:
    case MsgType::kMetrics: {
      const bool is_stats = frame.type == MsgType::kStats;
      endpoint = is_stats ? "stats" : "metrics";
      try {
        const std::string mode = optional_string_payload(frame.payload);
        reply = is_stats ? Frame{MsgType::kStatsText,
                                 encode_string_payload(
                                     mode == "json"
                                         ? stats_.render_json(cache_.stats())
                                         : stats_text())}
                         : Frame{MsgType::kMetricsText,
                                 encode_string_payload(metrics_text())};
      } catch (const ProtocolError& e) {
        reply = error_reply(ErrorCode::kBadRequest, e.what());
      }
      break;
    }
    case MsgType::kShutdown:
      // Flag before replying: once the client sees the ack, a
      // stop_requested() poll must already observe it.
      host_.request_stop();
      reply = {MsgType::kShutdownOk, encode_string_payload("ok")};
      endpoint = "shutdown";
      break;
    case MsgType::kLoadModel:
      reply = handle_load_model(frame.payload);
      endpoint = "admin";
      break;
    case MsgType::kUnloadModel:
      reply = handle_unload_model(frame.payload);
      endpoint = "admin";
      break;
    case MsgType::kTraceDump:
      // Draining the ring is destructive and its contents describe
      // server internals, so it rides the same operator gate as the
      // registry mutations.
      reply = config_.allow_admin
                  ? Frame{MsgType::kTraceJson,
                          encode_string_payload(
                              obs::Trace::drain_chrome_json())}
                  : error_reply(ErrorCode::kAdminDisabled,
                                "trace_dump is disabled (start the server "
                                "with --allow-admin)");
      endpoint = "admin";
      break;
    case MsgType::kPredict: {
      auto job = std::make_shared<PendingJob>();
      try {
        job->request = PredictRequest::decode(frame.payload);
      } catch (const ProtocolError& e) {
        reply = error_reply(ErrorCode::kBadRequest, e.what());
        endpoint = "predict";
        break;
      }
      job->request.ext = frame.ext;
      job->enqueued_at = received_at;
      if (job->request.netlist_verilog.empty()) {
        reply = error_reply(ErrorCode::kBadRequest,
                            "predict carries no netlist text");
        endpoint = "predict";
        break;
      }
      admit_netlist(*job, /*client_hash=*/0);
      // Admission control runs before the queue: a shed request costs
      // one cache peek, not a dispatcher slot (see maybe_shed_predict).
      if (auto shed = maybe_shed_predict(*job)) {
        reply = std::move(*shed);
        endpoint = "predict";
        break;
      }
      reply = submit_and_wait(job);
      maybe_attach_load(job->request.ext, reply, &job->timing);
      break;
    }
    case MsgType::kStreamBegin:
    case MsgType::kStreamChunk:
    case MsgType::kStreamEnd:
      reply = handle_stream_frame(frame, stream);
      break;
    default:
      reply = error_reply(
          ErrorCode::kBadRequest,
          "unknown message type " +
              std::to_string(static_cast<std::uint32_t>(frame.type)));
      break;
  }
  if (endpoint != nullptr) {
    stats_.record(endpoint, elapsed_us(received_at),
                  reply.type == MsgType::kError);
  }
  return reply;
}

void Server::dispatcher_loop() {
  for (;;) {
    std::vector<std::shared_ptr<PendingJob>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty() && stopping_) return;
      const std::size_t n = std::min(queue_.size(), config_.batch_max);
      batch.assign(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(n));
      queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
      queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
    }
    // The batch exists from this instant: everything before is batch wait
    // (stream assembly + waiting for the dispatcher to wake), everything
    // after — including the test-hook delay below, which models dispatch
    // overhead — is queue time.
    const Clock::time_point dispatched = Clock::now();
    for (const auto& job : batch) job->dispatched_at = dispatched;
    if (config_.dispatch_delay_for_test_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.dispatch_delay_for_test_ms));
    }
    run_batch_fused(batch);
  }
}

void Server::run_batch_fused(std::vector<std::shared_ptr<PendingJob>>& batch) {
  const std::size_t n = batch.size();
  std::vector<PredictPrep> preps(n);

  // Phase A: per-job prework in parallel — trace scope, deadline
  // pre-check, registry pin, cache probes, parse/stimulus on misses.
  // Failures land in prep.reply; nothing here may escape (phase C owns the
  // promise and treats a job without a reply as a success — the catch-alls
  // route every failure into prep.reply).
  util::ThreadPool::global().run(n, [&](std::size_t i) {
    PendingJob& job = *batch[i];
    PredictPrep& prep = preps[i];
    prep.ctx = job.request.ext.trace;
    if (!prep.ctx.valid() && obs::trace_enabled()) {
      prep.ctx = obs::make_root_context(/*sampled=*/true);
    }
    obs::TraceContextScope scope(prep.ctx);
    try {
      const std::uint64_t waited_ms = elapsed_us(job.enqueued_at) / 1000;
      if (job.request.deadline_ms > 0 && waited_ms > job.request.deadline_ms) {
        prep.reply = error_reply(
            ErrorCode::kDeadlineExceeded,
            "request waited " + std::to_string(waited_ms) + "ms, deadline " +
                std::to_string(job.request.deadline_ms) + "ms");
        return;
      }
      prepare_predict(job, prep);
    } catch (const std::exception& e) {
      prep.reply = error_reply(ErrorCode::kInternal, e.what());
    } catch (...) {
      prep.reply = error_reply(ErrorCode::kInternal,
                               "handler raised a non-standard exception");
    }
  });

  // Phase B: one encode_batch per distinct model over every job that
  // missed the result cache, on the dispatcher thread — the pool's
  // threads split the batch's (sub-module, cycle) segments, which beats
  // one-request-per-thread for the matmul-bound encoder. Jobs on the same
  // model share one call even across different designs. The encoder spans
  // emitted here are batch-level (no single request's context could own a
  // batch-wide call).
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < n; ++i) {
    if (!preps[i].reply && preps[i].needs_encode) pending.push_back(i);
  }
  while (!pending.empty()) {
    const core::AtlasModel* model = preps[pending.front()].entry->model.get();
    std::vector<std::size_t> group;
    std::vector<std::size_t> rest;
    for (const std::size_t i : pending) {
      (preps[i].entry->model.get() == model ? group : rest).push_back(i);
    }
    pending = std::move(rest);

    const Clock::time_point t0 = Clock::now();
    std::vector<core::AtlasModel::EncodeItem> items;
    items.reserve(group.size());
    try {
      for (const std::size_t i : group) {
        items.push_back(core::AtlasModel::EncodeItem{
            &preps[i].design->gate, &preps[i].design->graphs,
            &preps[i].toggles, &preps[i].emb});
      }
      model->encode_batch(items.data(), items.size(), thread_scratch());
      // Every job in the group waited for the whole fused call; the shared
      // wall time is each one's encode phase.
      const std::uint64_t encode_us = elapsed_us(t0);
      for (const std::size_t i : group) batch[i]->timing.encode_us += encode_us;
    } catch (const std::exception& e) {
      for (const std::size_t i : group) {
        if (!preps[i].reply) {
          preps[i].reply = error_reply(ErrorCode::kInternal, e.what());
        }
      }
    } catch (...) {
      for (const std::size_t i : group) {
        if (!preps[i].reply) {
          preps[i].reply =
              error_reply(ErrorCode::kInternal,
                          "handler raised a non-standard exception");
        }
      }
    }
  }

  // Phase C: heads (misses only), serialization and promise fulfillment
  // fan back out.
  util::ThreadPool::global().run(n, [&](std::size_t i) {
    complete_fused_job(*batch[i], preps[i]);
  });
}

void Server::complete_fused_job(PendingJob& job, PredictPrep& prep) noexcept {
  // The promise is fulfilled exactly once on EVERY path (server.h): catch
  // everything, including non-std exceptions, and never let stats
  // accounting stand between an exception and set_value.
  bool is_error = true;
  Frame reply;
  try {
    obs::TraceContextScope scope(prep.ctx);
    if (prep.reply) {
      reply = std::move(*prep.reply);
      is_error = reply.type == MsgType::kError;
    } else {
      reply = finish_predict(job, prep);
      is_error = reply.type == MsgType::kError;
      // Re-check after compute: a request that blew its deadline inside the
      // pipeline must not get a full late success reply (and must count as
      // an error), or clients time out while `stats` reports green.
      const std::uint64_t total_ms = elapsed_us(job.enqueued_at) / 1000;
      if (!is_error && job.request.deadline_ms > 0 &&
          total_ms > job.request.deadline_ms) {
        reply = error_reply(ErrorCode::kDeadlineExceeded,
                            "request took " + std::to_string(total_ms) +
                                "ms total, deadline " +
                                std::to_string(job.request.deadline_ms) + "ms");
        is_error = true;
      }
    }
    maybe_log_slow(job, is_error);
    if (config_.fault_inject_for_test) {
      throw "injected non-std fault after handler";  // NOLINT
    }
  } catch (const std::exception& e) {
    reply = error_reply(ErrorCode::kInternal, e.what());
    is_error = true;
  } catch (...) {
    reply = error_reply(ErrorCode::kInternal,
                        "handler raised a non-standard exception");
    is_error = true;
  }
  try {
    stats_.record(job.endpoint, elapsed_us(job.enqueued_at), is_error);
  } catch (...) {
    // Accounting must never cost the client its reply.
  }
  job.result.set_value(std::move(reply));
}

Frame Server::submit_and_wait(const std::shared_ptr<PendingJob>& job) {
  auto future = job->result.get_future();
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      rejected = true;
    } else {
      queue_.push_back(job);
      queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
      // Admitted: the job counts against the shed watermark and the load
      // report from enqueue until its reply is handed back below. The raw
      // queue depth alone is nearly always ~0 (the dispatcher drains the
      // queue into forming batches immediately), so queued + in-flight is
      // the signal that actually tracks pressure.
      inflight_gauge().set(static_cast<std::int64_t>(
          inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
    }
  }
  if (rejected) {
    // Jobs that reach the dispatcher are accounted in complete_fused_job; a
    // shutdown rejection never gets there, so account it here.
    stats_.record(job->endpoint, elapsed_us(job->enqueued_at), true);
    return error_reply(ErrorCode::kShuttingDown, "server is shutting down");
  }
  queue_cv_.notify_one();
  auto reply = future.get();
  inflight_gauge().set(static_cast<std::int64_t>(
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  return reply;
}

void Server::admit_netlist(PendingJob& job, std::uint64_t client_hash) {
  if (client_hash != 0) {
    job.netlist_hash = client_hash;
    return;
  }
  const Clock::time_point start = Clock::now();
  job.netlist_hash = netlist_hashes_.fnv1a64(job.request.netlist_verilog);
  job.timing.cache_us = elapsed_us(start);
}

bool Server::predict_is_warm(const PendingJob& job) const {
  const PredictRequest& req = job.request;
  const std::shared_ptr<const ModelEntry> entry = registry_->get(req.model);
  // Unknown model: admit, so the normal path answers kUnknownModel —
  // shedding would hide a configuration error behind a retryable
  // overload signal.
  if (!entry) return true;
  // Mirror prepare_predict's key derivation exactly; a mismatch here would
  // shed requests the cache could have answered. Plain predicts use a
  // built-in workload (trace hash 0).
  const std::uint64_t design_key =
      design_cache_key(job.netlist_hash, entry->library_hash);
  if (!cache_.peek_design(design_key)) return false;
  const PredictionKey key{req.model, req.workload, req.cycles,
                         /*trace_hash=*/0, entry->generation};
  return cache_.peek_prediction(design_key, key);
}

std::optional<Frame> Server::maybe_shed_predict(const PendingJob& job) {
  if (config_.shed_queue_depth == 0) return std::nullopt;
  const std::size_t load = inflight_.load(std::memory_order_relaxed);
  if (load < config_.shed_queue_depth) return std::nullopt;
  // Warm requests are never shed: answering from the cache is cheaper than
  // the round trip it would cost the client to go anywhere else.
  if (predict_is_warm(job)) return std::nullopt;
  shed_counter().inc();
  Frame reply = error_reply(
      ErrorCode::kOverloaded,
      "cold request shed: " + std::to_string(load) +
          " jobs in flight >= watermark " +
          std::to_string(config_.shed_queue_depth) +
          "; retry on a replica or later");
  // A shed is queue-bound by definition: report wait-dominated so a routing
  // tier prefers a warm replica for the retry.
  maybe_attach_load(job.request.ext, reply, nullptr);
  return reply;
}

void Server::maybe_attach_load(const FrameExt& request_ext, Frame& reply,
                               const ServerTiming* timing) const {
  if (!request_ext.want_queue_depth) return;
  LoadReport report;
  report.load = inflight_.load(std::memory_order_relaxed);
  // Shed replies carry no timing and are queue-bound by definition.
  // Completed jobs are wait-dominated when batch wait + queue time is the
  // majority of the total — the same phase split the slow log reports.
  bool wait_dominated = timing == nullptr;
  if (timing != nullptr && timing->total_us > 0) {
    wait_dominated =
        (timing->batch_wait_us + timing->queue_us) * 2 > timing->total_us;
  }
  if (wait_dominated) report.flags |= LoadReport::kFlagWaitDominated;
  reply.ext.load = report;
}

Frame Server::handle_stream_frame(const Frame& frame, StreamState& stream) {
  const Clock::time_point received_at = Clock::now();
  // Any assembly-stage failure answers an error, resets the stream state
  // (the partial upload is discarded) and is counted against the `stream`
  // endpoint; the connection itself survives.
  const auto fail = [&](ErrorCode code, const std::string& msg) {
    stream.reset();
    stats_.record("stream", elapsed_us(received_at), true);
    return error_reply(code, msg);
  };
  const auto deadline_expired = [&]() -> bool {
    if (!stream.active || stream.begin.deadline_ms == 0) return false;
    return elapsed_us(stream.started) / 1000 > stream.begin.deadline_ms;
  };

  switch (frame.type) {
    case MsgType::kStreamBegin: {
      if (stream.active) {
        return fail(ErrorCode::kStreamProtocol,
                    "stream_begin while a stream is active (partial upload "
                    "discarded)");
      }
      StreamBeginRequest begin;
      try {
        begin = StreamBeginRequest::decode(frame.payload);
      } catch (const ProtocolError& e) {
        return fail(ErrorCode::kBadRequest, e.what());
      }
      begin.ext = frame.ext;
      if (begin.design_hash != 0 && !begin.netlist_verilog.empty()) {
        return fail(ErrorCode::kBadRequest,
                    "stream_begin carries both a design_hash and netlist "
                    "text; send exactly one");
      }
      if (begin.design_hash == 0 && begin.netlist_verilog.empty()) {
        return fail(ErrorCode::kBadRequest,
                    "stream_begin carries neither a design_hash nor netlist "
                    "text; send exactly one");
      }
      if (begin.design_hash != 0) {
        // Early check so the client learns about a cold hash before paying
        // for the upload; the cache can still evict between here and the
        // predict, so prepare_predict re-checks and answers kUnknownDesign
        // again rather than trusting this one.
        const std::shared_ptr<const ModelEntry> entry =
            registry_->get(begin.model);
        if (!entry) {
          return fail(ErrorCode::kUnknownModel,
                      "unknown model: " + begin.model);
        }
        if (!cache_.find_design(
                design_cache_key(begin.design_hash, entry->library_hash))) {
          return fail(ErrorCode::kUnknownDesign,
                      "design " + util::hash_hex(begin.design_hash) +
                          " is not cached; re-send the netlist");
        }
      }
      if (begin.trace_bytes == 0 ||
          begin.trace_bytes > kMaxStreamBytes) {
        return fail(ErrorCode::kStreamProtocol,
                    "declared trace size " + std::to_string(begin.trace_bytes) +
                        " outside (0, " + std::to_string(kMaxStreamBytes) +
                        "]");
      }
      if (begin.cycles < 0 || begin.cycles > kMaxRequestCycles) {
        return fail(ErrorCode::kBadRequest,
                    "cycles out of range: " + std::to_string(begin.cycles));
      }
      stream.active = true;
      stream.begin = std::move(begin);
      stream.data.clear();
      stream.data.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(stream.begin.trace_bytes, 1u << 20)));
      stream.chunks = 0;
      stream.started = received_at;
      StreamAck ack;
      ack.seq = 0;
      ack.received_bytes = 0;
      return {MsgType::kStreamAck, ack.encode()};
    }
    case MsgType::kStreamChunk: {
      if (!stream.active) {
        return fail(ErrorCode::kStreamProtocol,
                    "stream_chunk without stream_begin");
      }
      if (deadline_expired()) {
        return fail(ErrorCode::kDeadlineExceeded,
                    "deadline expired during stream assembly (" +
                        std::to_string(elapsed_us(stream.started) / 1000) +
                        "ms elapsed, deadline " +
                        std::to_string(stream.begin.deadline_ms) + "ms)");
      }
      StreamChunk chunk;
      try {
        chunk = StreamChunk::decode(frame.payload);
      } catch (const ProtocolError& e) {
        return fail(ErrorCode::kBadRequest, e.what());
      }
      if (chunk.seq != stream.chunks) {
        return fail(ErrorCode::kStreamProtocol,
                    "out-of-order chunk: got seq " +
                        std::to_string(chunk.seq) + ", expected " +
                        std::to_string(stream.chunks));
      }
      if (stream.data.size() + chunk.data.size() > stream.begin.trace_bytes) {
        return fail(ErrorCode::kStreamProtocol,
                    "stream exceeds declared size " +
                        std::to_string(stream.begin.trace_bytes));
      }
      stream.data += chunk.data;
      ++stream.chunks;
      StreamAck ack;
      ack.seq = chunk.seq;
      ack.received_bytes = stream.data.size();
      return {MsgType::kStreamAck, ack.encode()};
    }
    case MsgType::kStreamEnd: {
      if (!stream.active) {
        return fail(ErrorCode::kStreamProtocol,
                    "stream_end without stream_begin");
      }
      if (deadline_expired()) {
        return fail(ErrorCode::kDeadlineExceeded,
                    "deadline expired during stream assembly (" +
                        std::to_string(elapsed_us(stream.started) / 1000) +
                        "ms elapsed, deadline " +
                        std::to_string(stream.begin.deadline_ms) + "ms)");
      }
      StreamEndRequest end;
      try {
        end = StreamEndRequest::decode(frame.payload);
      } catch (const ProtocolError& e) {
        return fail(ErrorCode::kBadRequest, e.what());
      }
      if (end.total_chunks != stream.chunks ||
          end.total_bytes != stream.data.size() ||
          stream.data.size() != stream.begin.trace_bytes) {
        return fail(
            ErrorCode::kStreamProtocol,
            "stream totals mismatch: assembled " +
                std::to_string(stream.data.size()) + " bytes / " +
                std::to_string(stream.chunks) + " chunks, declared " +
                std::to_string(stream.begin.trace_bytes) + " bytes, end said " +
                std::to_string(end.total_bytes) + " bytes / " +
                std::to_string(end.total_chunks) + " chunks");
      }
      const bool is_delta = stream.begin.format == TraceFormat::kToggleDelta;
      if (is_delta) {
        // Structural walk on the connection thread so a malformed delta
        // upload is a stream-protocol error here — mirroring the size /
        // ordering violations above — and never reaches the dispatcher.
        // (Netlist-dependent mismatches still surface at predict time.)
        try {
          const int declared = sim::validate_delta(stream.data);
          if (stream.begin.cycles > 0 && declared != stream.begin.cycles) {
            return fail(ErrorCode::kStreamProtocol,
                        "delta trace declares " + std::to_string(declared) +
                            " cycles, stream_begin declared " +
                            std::to_string(stream.begin.cycles));
          }
        } catch (const sim::TraceError& e) {
          return fail(ErrorCode::kStreamProtocol,
                      std::string("malformed delta trace: ") + e.what());
        }
      }
      auto job = std::make_shared<PendingJob>();
      job->request.model = std::move(stream.begin.model);
      job->request.netlist_verilog = std::move(stream.begin.netlist_verilog);
      job->request.workload = "external";
      job->request.cycles = stream.begin.cycles;
      job->request.deadline_ms = stream.begin.deadline_ms;
      job->request.want_submodules = stream.begin.want_submodules;
      job->request.ext = stream.begin.ext;
      job->trace = std::make_shared<const sim::ExternalTrace>(
          is_delta ? sim::ExternalTrace::from_delta_bytes(std::move(stream.data))
                   : sim::ExternalTrace::from_vcd_text(std::move(stream.data)));
      job->endpoint = "stream";
      // The deadline spans the whole streamed request: assembly included.
      job->enqueued_at = stream.started;
      admit_netlist(*job, stream.begin.design_hash);
      stream.reset();
      Frame reply = submit_and_wait(job);
      maybe_attach_load(job->request.ext, reply, &job->timing);
      return reply;
    }
    default:
      return fail(ErrorCode::kBadRequest, "not a stream frame");
  }
}

Frame Server::handle_load_model(const std::string& payload) {
  if (!config_.allow_admin) {
    return error_reply(ErrorCode::kAdminDisabled,
                       "model administration is disabled "
                       "(start the server with --allow-admin)");
  }
  LoadModelRequest req;
  try {
    req = LoadModelRequest::decode(payload);
  } catch (const ProtocolError& e) {
    return error_reply(ErrorCode::kBadRequest, e.what());
  }
  if (req.name.empty() || req.path.empty()) {
    return error_reply(ErrorCode::kBadRequest,
                       "load_model requires a name and a path");
  }
  try {
    registry_->load(req.name, req.path, req.library_path);
  } catch (const std::exception& e) {
    // Unreadable path, corrupt artifact, or a bad Liberty file: the
    // registry is untouched and the connection survives.
    return error_reply(ErrorCode::kBadRequest,
                       std::string("load_model failed: ") + e.what());
  }
  const auto entry = registry_->get(req.name);
  if (config_.verbose) {
    obs::LogLine(obs::LogLevel::kInfo, "serve")
        .kv("event", "model_loaded")
        .kv("model", req.name)
        .kv("library", entry ? entry->library->name() : "?")
        .kv("generation",
            entry ? static_cast<std::int64_t>(entry->generation) : -1);
  }
  return {MsgType::kAdminOk, encode_string_payload("loaded " + req.name)};
}

Frame Server::handle_unload_model(const std::string& payload) {
  if (!config_.allow_admin) {
    return error_reply(ErrorCode::kAdminDisabled,
                       "model administration is disabled "
                       "(start the server with --allow-admin)");
  }
  UnloadModelRequest req;
  try {
    req = UnloadModelRequest::decode(payload);
  } catch (const ProtocolError& e) {
    return error_reply(ErrorCode::kBadRequest, e.what());
  }
  if (!registry_->unload(req.name)) {
    return error_reply(ErrorCode::kUnknownModel,
                       "unknown model: " + req.name);
  }
  if (config_.verbose) {
    obs::LogLine(obs::LogLevel::kInfo, "serve")
        .kv("event", "model_unloaded")
        .kv("model", req.name);
  }
  return {MsgType::kAdminOk, encode_string_payload("unloaded " + req.name)};
}

void Server::maybe_log_slow(const PendingJob& job, bool is_error) {
  if (config_.slow_ms <= 0) return;
  // Error replies return before finish_predict stamps total_us; measure
  // from the enqueue time so a slow *failure* is still forensic material.
  const std::uint64_t total_us =
      std::max(job.timing.total_us, elapsed_us(job.enqueued_at));
  const std::uint64_t total_ms = total_us / 1000;
  if (total_ms <= static_cast<std::uint64_t>(config_.slow_ms)) return;
  obs::Registry::global().counter("atlas_serve_slow_requests_total").inc();
  // Sampled: at most ~1 line/second. A systemic slowdown makes every
  // request slow; the counter carries the rate, the log carries one
  // representative per-phase breakdown.
  const std::uint64_t now = obs::trace_now_us();
  std::uint64_t last = last_slow_log_us_.load(std::memory_order_relaxed);
  if (last != 0 && now - last < 1'000'000) return;
  if (!last_slow_log_us_.compare_exchange_strong(last, now,
                                                 std::memory_order_relaxed)) {
    return;  // another slow request just logged
  }
  obs::LogLine line(obs::LogLevel::kWarn, "serve");
  line.kv("event", "slow_request")
      .kv("endpoint", job.endpoint)
      .kv("model", job.request.model)
      .kv("error", is_error ? 1 : 0)
      .kv("slow_ms_threshold", config_.slow_ms)
      .kv("total_ms", static_cast<std::int64_t>(total_ms))
      .kv("batch_wait_us", static_cast<std::int64_t>(job.timing.batch_wait_us))
      .kv("queue_us", static_cast<std::int64_t>(job.timing.queue_us))
      .kv("cache_us", static_cast<std::int64_t>(job.timing.cache_us))
      .kv("encode_us", static_cast<std::int64_t>(job.timing.encode_us))
      .kv("predict_us", static_cast<std::int64_t>(job.timing.predict_us))
      .kv("serialize_us", static_cast<std::int64_t>(job.timing.serialize_us));
  const obs::TraceContext ctx = obs::current_trace_context();
  if (ctx.valid()) {
    line.kv("trace_id",
            util::hash_hex(ctx.trace_hi) + util::hash_hex(ctx.trace_lo));
  }
}

void Server::prepare_predict(PendingJob& job, PredictPrep& prep) {
  const PredictRequest& req = job.request;
  const sim::ExternalTrace* trace = job.trace.get();
  // Pre-handler phases: batch wait (enqueue -> batch formed; for streams
  // that includes chunk assembly) and queue (batch formed -> here: dispatch
  // overhead + waiting for a pool slot) — together "time not spent
  // computing", separable into "waiting to be batched" vs "batched but not
  // yet running". The admission hash ran inside the pre-dispatch interval
  // and is already in cache_us, so batch wait leaves it out.
  const std::uint64_t pre_dispatch_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          job.dispatched_at - job.enqueued_at)
          .count());
  job.timing.batch_wait_us =
      pre_dispatch_us - std::min(pre_dispatch_us, job.timing.cache_us);
  job.timing.queue_us = elapsed_us(job.dispatched_at);
  obs::ObsSpan span("serve", "handle_predict");
  prep.handler_start = Clock::now();
  if (config_.handler_delay_for_test_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.handler_delay_for_test_ms));
  }

  // Pin the registry entry for the whole request: `entry` co-owns the model
  // AND its library, so a concurrent unload/replace cannot free anything
  // this handler still touches — the retired artifact is destroyed when the
  // last in-flight request drains. The pin lives in prep, so it spans every
  // phase of a fused batch, not just this one.
  prep.entry = registry_->get(req.model);
  const std::shared_ptr<const ModelEntry>& entry = prep.entry;
  if (!entry) {
    prep.reply =
        error_reply(ErrorCode::kUnknownModel,
                    "unknown model: " + util::excerpt(req.model));
    return;
  }
  const bool external = trace != nullptr;
  sim::WorkloadSpec workload;
  if (external) {
    // Streamed trace: cycles come from the trace itself; a nonzero request
    // value is a cross-check, not a simulation length.
    if (req.cycles < 0 || req.cycles > kMaxRequestCycles) {
      prep.reply =
          error_reply(ErrorCode::kBadRequest,
                      "cycles out of range: " + std::to_string(req.cycles));
      return;
    }
  } else {
    if (req.workload == "w1" || req.workload == "W1") {
      workload = sim::make_w1();
    } else if (req.workload == "w2" || req.workload == "W2") {
      workload = sim::make_w2();
    } else {
      prep.reply = error_reply(
          ErrorCode::kUnknownWorkload,
          "unknown workload: " + util::excerpt(req.workload) + " (use w1|w2)");
      return;
    }
    if (req.cycles <= 0 || req.cycles > kMaxRequestCycles) {
      prep.reply =
          error_reply(ErrorCode::kBadRequest,
                      "cycles out of range: " + std::to_string(req.cycles));
      return;
    }
  }
  // Design artifacts depend on the library the netlist is parsed against
  // (cell ids, pin caps, energy LUTs feed the graph features), so the key
  // mixes in the library's content hash: two models on different substrates
  // can never serve each other's parsed graphs, while models sharing a
  // substrate (equal hash) still share the entry.
  // The netlist hash was stamped at admission (admit_netlist); design-by-hash
  // requests supply it directly (the client computed the same FNV-1a over
  // the text it uploaded earlier), so the key resolves without the text
  // ever crossing the wire again.
  prep.design_key = design_cache_key(job.netlist_hash, entry->library_hash);
  const std::uint64_t design_key = prep.design_key;

  Clock::time_point phase_start = Clock::now();
  prep.design = cache_.find_design(design_key);
  job.timing.cache_us += elapsed_us(phase_start);
  if (prep.design) {
    prep.cache_flags |= kCacheHitDesign;
  } else if (req.netlist_verilog.empty()) {
    // A hash reference cannot rebuild the artifacts (there is no text to
    // parse); this is the StreamBegin check losing a race with eviction.
    prep.reply = error_reply(ErrorCode::kUnknownDesign,
                             "design " + util::hash_hex(job.netlist_hash) +
                                 " is no longer cached; re-send the netlist");
    return;
  } else {
    phase_start = Clock::now();
    obs::ObsSpan prep_span("serve", "parse_and_graphs");
    std::optional<netlist::Netlist> parsed;
    try {
      parsed = netlist::parse_verilog(req.netlist_verilog, *entry->library);
      // A combinational loop or a clock cell fed by a data net parses but
      // cannot be simulated: reject it as the client's error before it
      // enters the design cache.
      sim::CycleSimulator{*parsed};
    } catch (const std::exception& e) {
      prep.reply = error_reply(ErrorCode::kBadRequest,
                               std::string("invalid netlist: ") + e.what());
      return;
    }
    const int structural = core::assign_submodules_by_structure(*parsed);
    auto graphs = graph::build_submodule_graphs(*parsed);
    // A netlist without cells (or whose cells form no sub-module graph)
    // has nothing to encode; answering it would cache an empty design and
    // report all-zero power as a prediction.
    if (parsed->num_cells() == 0 || graphs.empty()) {
      prep.reply = error_reply(ErrorCode::kBadRequest,
                               parsed->num_cells() == 0
                                   ? "invalid netlist: no cells"
                                   : "invalid netlist: no sub-module graphs");
      return;
    }
    // The cached netlist holds a raw reference to its library, so the entry
    // co-owns the library too — it may outlive the model binding that
    // created it (unload, or replace with a different substrate). The
    // insert returns the winning entry: if a racing request populated the
    // key first, this job adopts (and serves against) that copy.
    prep.design = cache_.put_design(
        design_key,
        std::make_shared<const DesignArtifacts>(DesignArtifacts{
            std::move(*parsed), std::move(graphs), structural,
            entry->library}));
    job.timing.encode_us += elapsed_us(phase_start);
  }

  // For streamed traces the key carries the trace's content hash, so two
  // different uploads can never alias — and a warm hit skips even the VCD
  // parse (the hash alone identifies the stimulus). The registry generation
  // makes a reload under the same name a guaranteed miss: a prediction
  // from the replaced artifact is stale (different weights), never merely
  // cold.
  prep.pred_key = PredictionKey{req.model, req.workload, req.cycles,
                               external ? trace->content_hash() : 0,
                               entry->generation};
  phase_start = Clock::now();
  prep.pred = cache_.find_prediction(design_key, prep.pred_key);
  job.timing.cache_us += elapsed_us(phase_start);
  if (prep.pred) {
    prep.cache_flags |= kCacheHitEmbeddings;
    return;
  }
  // Result miss: resolve the stimulus here (still per-job parallel work)
  // and leave the encoder itself to the caller: one fused encode_batch per
  // model over the whole dispatcher batch.
  phase_start = Clock::now();
  if (external) {
    try {
      prep.toggles = trace->resolve(prep.design->gate, kMaxRequestCycles);
    } catch (const std::exception& e) {
      prep.reply = error_reply(ErrorCode::kBadRequest,
                               std::string("trace parse failed: ") + e.what());
      return;
    }
    if (prep.toggles.num_cycles() <= 0) {
      prep.reply = error_reply(ErrorCode::kBadRequest,
                               "streamed trace contains no cycles");
      return;
    }
    if (req.cycles > 0 && prep.toggles.num_cycles() != req.cycles) {
      prep.reply = error_reply(
          ErrorCode::kBadRequest,
          "trace has " + std::to_string(prep.toggles.num_cycles()) +
              " cycles, stream_begin declared " + std::to_string(req.cycles));
      return;
    }
  } else {
    sim::CycleSimulator simulator(prep.design->gate);
    sim::StimulusGenerator stimulus(prep.design->gate, workload);
    prep.toggles = simulator.run(stimulus, req.cycles);
  }
  prep.needs_encode = true;
  job.timing.encode_us += elapsed_us(phase_start);
}

Frame Server::finish_predict(PendingJob& job, PredictPrep& prep) {
  const PredictRequest& req = job.request;
  Clock::time_point phase_start;
  if (!prep.pred) {
    phase_start = Clock::now();
    // Head scratch (feature-row blocks, per-row outputs) comes from this
    // thread's recycled arena: zero steady-state mallocs.
    auto computed = std::make_shared<const core::Prediction>(
        prep.entry->model->predict_from_embeddings(
            prep.design->gate, prep.design->graphs, prep.emb,
            &thread_scratch()));
    job.timing.predict_us = elapsed_us(phase_start);
    // The insert returns the winning entry (a racing request may have
    // populated the key first, or the design may have been evicted — see
    // FeatureCache::put_prediction), so the job serves exactly what future
    // lookups will see.
    phase_start = Clock::now();
    prep.pred = cache_.put_prediction(prep.design_key, prep.pred_key,
                                      std::move(computed));
    job.timing.cache_us += elapsed_us(phase_start);
  }
  const core::Prediction& pred = *prep.pred;

  // Only the header goes into `resp`; the rows are written straight from
  // the cached prediction.
  PredictResponse resp;
  resp.cache_flags = prep.cache_flags;
  resp.num_cycles = pred.num_cycles;
  resp.num_submodules = pred.num_submodules;
  resp.server_seconds =
      static_cast<double>(elapsed_us(prep.handler_start)) / 1e6;
  std::span<const power::GroupPower> submodule_rows;
  if (req.want_submodules) submodule_rows = pred.submodule;
  phase_start = Clock::now();
  Frame reply{MsgType::kPredictOk,
              resp.encode_with_rows(pred.design, submodule_rows)};
  job.timing.serialize_us = elapsed_us(phase_start);
  job.timing.total_us = elapsed_us(job.enqueued_at);
  if (req.ext.want_timing) reply.ext.timing = job.timing;
  return reply;
}

}  // namespace atlas::serve
