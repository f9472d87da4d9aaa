#include "router/backend_pool.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>

#include "obs/metrics.h"
#include "serve/client.h"
#include "util/strings.h"

namespace atlas::router {
namespace {

/// Probe backoff ceiling while a backend stays dead.
constexpr int kMaxProbeBackoffMs = 5000;

std::string quoted_backend_label(const std::string& id) {
  return "backend=\"" + id + "\"";
}

obs::Histogram& probe_latency_histogram() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("atlas_router_probe_latency_us");
  return h;
}

}  // namespace

BackendAddress parse_backend(const std::string& spec) {
  BackendAddress addr;
  if (spec.rfind("unix:", 0) == 0) {
    addr.unix_path = spec.substr(5);
    if (addr.unix_path.empty()) {
      throw std::runtime_error("backend spec '" + spec + "': empty unix path");
    }
    addr.id = "unix:" + addr.unix_path;
    return addr;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw std::runtime_error("backend spec '" + spec +
                             "': expected host:port or unix:/path");
  }
  addr.host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  std::size_t consumed = 0;
  int port = 0;
  try {
    port = std::stoi(port_text, &consumed);
  } catch (const std::exception&) {
    throw std::runtime_error("backend spec '" + spec + "': bad port '" +
                             port_text + "'");
  }
  if (consumed != port_text.size() || port <= 0 || port > 65535) {
    throw std::runtime_error("backend spec '" + spec + "': bad port '" +
                             port_text + "'");
  }
  addr.port = port;
  addr.id = addr.host + ":" + port_text;
  return addr;
}

std::vector<BackendAddress> parse_backend_list(const std::string& csv) {
  std::vector<BackendAddress> out;
  std::set<std::string> seen;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string spec(util::trim(csv.substr(start, comma - start)));
    start = comma + 1;
    if (spec.empty()) continue;
    BackendAddress addr = parse_backend(spec);
    if (!seen.insert(addr.id).second) {
      throw std::runtime_error("duplicate backend '" + addr.id + "'");
    }
    out.push_back(std::move(addr));
  }
  if (out.empty()) throw std::runtime_error("no backends configured");
  return out;
}

const char* backend_state_name(BackendState state) {
  switch (state) {
    case BackendState::kUp:
      return "up";
    case BackendState::kDown:
      return "down";
    case BackendState::kDraining:
      return "draining";
  }
  return "unknown";
}

BackendPool::BackendPool(std::vector<BackendAddress> backends,
                         ProbeConfig config, RoutingConfig routing)
    : config_(config), routing_(routing), ring_(config.vnodes) {
  const auto now = std::chrono::steady_clock::now();
  entries_.reserve(backends.size());
  for (BackendAddress& addr : backends) {
    Entry e;
    e.address = std::move(addr);
    e.next_probe_at = now;
    entries_.push_back(std::move(e));
  }
  publish_gauges();
}

BackendPool::~BackendPool() { stop(); }

void BackendPool::start() {
  probe_all_now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  prober_ = std::thread([this] { prober_loop(); });
}

void BackendPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

std::vector<std::string> BackendPool::route(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.preference(key, ring_.size());
}

std::vector<RouteCandidate> order_candidates(
    std::vector<RouteCandidate> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const RouteCandidate& a, const RouteCandidate& b) {
              // A stale depth sorts as if 0 for the load term but after
              // every fresh one — never preferred on the strength of a
              // number that may describe a backend that no longer exists.
              const auto rank = [](const RouteCandidate& c) {
                return std::make_tuple(c.overloaded ? 1 : 0,
                                       c.load_fresh ? 0 : 1,
                                       c.load_fresh ? c.load : 0,
                                       c.chain_pos);
              };
              return rank(a) < rank(b);
            });
  return candidates;
}

std::vector<std::string> BackendPool::route_load_aware(std::uint64_t key,
                                                       bool open_forward) {
  std::lock_guard<std::mutex> lock(mu_);
  hot_keys_.record(key);
  std::vector<std::string> chain = ring_.preference(key, ring_.size());
  const std::size_t eligible =
      std::min<std::size_t>(routing_.replicas, chain.size());
  if (eligible > 1 &&
      hot_keys_.is_hot(key, routing_.hot_top_k, routing_.hot_min_requests)) {
    std::vector<RouteCandidate> candidates;
    candidates.reserve(eligible);
    for (std::size_t i = 0; i < eligible; ++i) {
      RouteCandidate c;
      c.id = chain[i];
      c.chain_pos = i;
      for (const Entry& e : entries_) {
        if (e.address.id != c.id) continue;
        c.load = std::max(e.load, e.open_forwards);
        c.load_fresh = e.load_fresh && e.state == BackendState::kUp;
        c.overloaded = e.overloaded;
        break;
      }
      candidates.push_back(std::move(c));
    }
    candidates = order_candidates(std::move(candidates));
    for (std::size_t i = 0; i < eligible; ++i) chain[i] = candidates[i].id;
  }
  if (open_forward && !chain.empty()) {
    for (Entry& e : entries_) {
      if (e.address.id == chain.front()) ++e.open_forwards;
    }
  }
  return chain;
}

void BackendPool::forward_done(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.address.id == id && e.open_forwards > 0) --e.open_forwards;
  }
}

void BackendPool::note_load(const std::string& id, std::uint64_t load,
                            bool wait_dominated) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.address.id != id) continue;
    e.load = load;
    e.load_fresh = true;
    // An overload mark only persists while reports keep justifying it: a
    // busy-but-computing shard (high load, compute-dominated) stays a
    // normal candidate, and a drained one clears on its next reply.
    e.overloaded =
        wait_dominated && routing_.overload_load > 0 &&
        load >= routing_.overload_load;
    publish_gauges();
    return;
  }
}

void BackendPool::note_overloaded(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.address.id != id) continue;
    e.overloaded = true;
    obs::Registry::global()
        .counter("atlas_router_backend_overloaded_total",
                 quoted_backend_label(id))
        .inc();
    return;
  }
}

std::size_t BackendPool::hot_keys_tracked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hot_keys_.tracked();
}

bool BackendPool::is_hot_key(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hot_keys_.is_hot(key, routing_.hot_top_k, routing_.hot_min_requests);
}

std::optional<BackendAddress> BackendPool::address(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.address.id == id) return e.address;
  }
  return std::nullopt;
}

std::vector<BackendAddress> BackendPool::all_backends() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BackendAddress> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.address);
  return out;
}

void BackendPool::report_failure(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.address.id != id) continue;
    e.state = BackendState::kDown;
    // Whatever depth we knew described a connection that just died.
    e.load_fresh = false;
    e.consecutive_failures = std::max(e.consecutive_failures,
                                      config_.fail_threshold);
    // Probe promptly: a data-path blip should not serve out a full backoff
    // ladder before the backend can rejoin.
    e.backoff_ms = config_.interval_ms;
    e.next_probe_at = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(config_.interval_ms);
    set_in_ring(e, false);
    obs::Registry::global()
        .counter("atlas_router_backend_evictions_total",
                 quoted_backend_label(id))
        .inc();
    return;
  }
}

void BackendPool::report_draining(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.address.id != id) continue;
    e.state = BackendState::kDraining;
    set_in_ring(e, false);
    return;
  }
}

std::vector<BackendStatus> BackendPool::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BackendStatus> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    BackendStatus s;
    s.address = e.address;
    s.state = e.state;
    s.health = e.health;
    s.probes_ok = e.probes_ok;
    s.probes_failed = e.probes_failed;
    s.consecutive_failures = e.consecutive_failures;
    s.in_ring = ring_.contains(e.address.id);
    s.load = e.load;
    s.load_fresh = e.load_fresh;
    s.overloaded = e.overloaded;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t BackendPool::ring_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t BackendPool::ring_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_generation_;
}

std::uint64_t BackendPool::library_hash_for(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = model_library_hash_.find(model);
  return it == model_library_hash_.end() ? 0 : it->second;
}

serve::HealthResponse BackendPool::aggregate_health() const {
  std::lock_guard<std::mutex> lock(mu_);
  serve::HealthResponse agg;
  std::uint64_t max_models = 0;
  for (const Entry& e : entries_) {
    if (e.state != BackendState::kUp) continue;
    agg.registry_generation =
        std::max(agg.registry_generation, e.health.registry_generation);
    max_models = std::max(max_models, e.health.num_models);
    agg.cache_designs += e.health.cache_designs;
    agg.cache_total_bytes += e.health.cache_total_bytes;
    agg.cache_embedding_bytes += e.health.cache_embedding_bytes;
    agg.queue_depth += e.health.queue_depth;
  }
  // Models are replicated fleet-wide by admin fan-out, not sharded: report
  // the largest shard's count rather than a meaningless sum.
  agg.num_models = max_models;
  return agg;
}

void BackendPool::probe_all_now() {
  std::vector<BackendAddress> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    targets.reserve(entries_.size());
    for (const Entry& e : entries_) targets.push_back(e.address);
  }
  // Probe concurrently, then apply every result under one lock. The old
  // sequential sweep made `health` — which refreshes the fleet view
  // synchronously — block for a full connect timeout *per dead backend*,
  // so one downed shard turned a monitoring request into a multi-second
  // stall. One short-lived thread per backend bounds the sweep at a single
  // probe timeout; probe_backend touches no shared state.
  std::vector<ProbeResult> results(targets.size());
  std::vector<std::thread> probes;
  probes.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    probes.emplace_back(
        [this, &targets, &results, i] { results[i] = probe_backend(targets[i]); });
  }
  for (std::thread& t : probes) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (Entry& e : entries_) {
      if (e.address.id == targets[i].id) {
        apply_probe_result(e, results[i]);
        break;
      }
    }
  }
}

void BackendPool::prober_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const auto now = std::chrono::steady_clock::now();
    // Probe whatever is due; earliest-deadline sleep otherwise.
    std::string due_id;
    for (Entry& e : entries_) {
      if (e.next_probe_at <= now) {
        due_id = e.address.id;
        // Push the schedule before the unlocked probe so a slow probe does
        // not cause a same-backend re-probe storm.
        e.next_probe_at = now + std::chrono::milliseconds(config_.interval_ms);
        break;
      }
    }
    if (due_id.empty()) {
      auto wake = now + std::chrono::milliseconds(config_.interval_ms);
      for (const Entry& e : entries_) wake = std::min(wake, e.next_probe_at);
      cv_.wait_until(lock, wake, [this] { return stopping_; });
      continue;
    }
    BackendAddress addr;
    for (const Entry& e : entries_) {
      if (e.address.id == due_id) addr = e.address;
    }
    lock.unlock();
    ProbeResult result = probe_backend(addr);
    lock.lock();
    if (stopping_) break;
    for (Entry& e : entries_) {
      if (e.address.id == due_id) {
        apply_probe_result(e, result);
        break;
      }
    }
  }
}

BackendPool::ProbeResult BackendPool::probe_backend(
    const BackendAddress& address) const {
  ProbeResult result;
  serve::ClientOptions options;
  options.connect_timeout_ms = config_.timeout_ms;
  options.io_timeout_ms = config_.timeout_ms;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    serve::Client client =
        address.is_unix()
            ? serve::Client::connect_unix(address.unix_path, options)
            : serve::Client::connect_tcp(address.host, address.port, options);
    result.health = client.health();
    result.models = client.models();
    result.ok = true;
  } catch (const std::exception&) {
    result.ok = false;
  }
  result.latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return result;
}

void BackendPool::apply_probe_result(Entry& e, const ProbeResult& result) {
  auto& registry = obs::Registry::global();
  probe_latency_histogram().record(result.latency_us);
  const auto now = std::chrono::steady_clock::now();
  if (result.ok) {
    registry
        .counter("atlas_router_probes_total",
                 quoted_backend_label(e.address.id) + ",result=\"ok\"")
        .inc();
    ++e.probes_ok;
    e.consecutive_failures = 0;
    e.backoff_ms = 0;
    e.health = result.health;
    // A probe reports the same queued + in-flight count as the data-path
    // piggyback, and it is *current*: refresh the depth, and clear any
    // overload mark — a shard that just answered a probe promptly gets to
    // be a candidate again.
    e.load = result.health.queue_depth;
    e.load_fresh = true;
    e.overloaded = false;
    e.next_probe_at = now + std::chrono::milliseconds(config_.interval_ms);
    for (const serve::ModelInfo& m : result.models) {
      if (m.library_hash != 0) model_library_hash_[m.name] = m.library_hash;
    }
    if (result.health.draining) {
      e.state = BackendState::kDraining;
      set_in_ring(e, false);
    } else {
      e.state = BackendState::kUp;
      set_in_ring(e, true);
    }
    publish_gauges();
    return;
  }
  registry
      .counter("atlas_router_probes_total",
               quoted_backend_label(e.address.id) + ",result=\"error\"")
      .inc();
  ++e.probes_failed;
  ++e.consecutive_failures;
  // The depth goes stale on the FIRST failed probe, not at fail_threshold:
  // below the threshold the backend stays kUp (and in the ring), and the
  // gauge used to keep publishing its last-good depth for the whole
  // backoff ladder — a frozen number describing a backend that may be
  // gone. publish_gauges() zeroes the gauge whenever the depth is stale,
  // and the routing policy stops trusting the value at the same instant.
  e.load_fresh = false;
  e.backoff_ms = e.backoff_ms == 0
                     ? config_.interval_ms
                     : std::min(e.backoff_ms * 2, kMaxProbeBackoffMs);
  e.next_probe_at = now + std::chrono::milliseconds(e.backoff_ms);
  if (e.consecutive_failures >= config_.fail_threshold) {
    e.state = BackendState::kDown;
    set_in_ring(e, false);
  }
  // set_in_ring only republishes on membership *changes*; a probe can update
  // health (queue depth) without one, so refresh unconditionally.
  publish_gauges();
}

void BackendPool::set_in_ring(Entry& e, bool in_ring) {
  bool changed = false;
  if (in_ring && !ring_.contains(e.address.id)) {
    ring_.add(e.address.id);
    changed = true;
  } else if (!in_ring && ring_.contains(e.address.id)) {
    ring_.remove(e.address.id);
    changed = true;
  }
  if (changed) {
    ++ring_generation_;
    publish_gauges();
  }
}

void BackendPool::publish_gauges() const {
  auto& registry = obs::Registry::global();
  registry.gauge("atlas_router_ring_backends")
      .set(static_cast<std::int64_t>(ring_.size()));
  registry.gauge("atlas_router_backends_configured")
      .set(static_cast<std::int64_t>(entries_.size()));
  for (const Entry& e : entries_) {
    const std::string label = quoted_backend_label(e.address.id);
    registry.gauge("atlas_router_backend_up", label)
        .set(e.state == BackendState::kUp ? 1 : 0);
    // The freshest queued + in-flight depth known for the shard; forced to
    // 0 the moment the signal goes stale (first failed probe or data-path
    // error) or the shard leaves kUp, so a stale depth never outlives the
    // backend state it described.
    registry.gauge("atlas_router_backend_queue_depth", label)
        .set(e.state == BackendState::kUp && e.load_fresh
                 ? static_cast<std::int64_t>(e.load)
                 : 0);
  }
}

}  // namespace atlas::router
