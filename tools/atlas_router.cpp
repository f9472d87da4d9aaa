// atlas_router — sharding front tier for a fleet of atlas_serve backends.
//
// Speaks the same ATSP wire protocol as atlas_serve, so clients point at a
// router exactly as they would at a single daemon. Predict and streamed-
// workload requests are consistent-hashed on (netlist content hash, model
// Liberty content hash) — the backends' design-cache key — onto the
// configured shards, so each design's parsed graphs and predictions warm
// exactly one backend — except the hottest designs, which --replicas
// spreads over the first R shards of their failover chain, routed by the
// freshest-known queue depth (piggybacked on data-path replies).
// A background prober (rich `health` requests, with
// timeouts and backoff) keeps the hash ring current as backends join,
// drain or die; in-flight requests fail over to the ring successor.
// load_model/unload_model fan out to every shard and answer with the
// aggregated per-shard status.
//
//   atlas_router --backends 127.0.0.1:7433,127.0.0.1:7434 --port 7430
//   atlas_router --backends unix:/tmp/a.sock,unix:/tmp/b.sock --port -1
//                --unix /tmp/atlas_router.sock --allow-admin
// (second example continues on one line: UDS-only with admin fan-out)
//
// SIGTERM / SIGINT (or a client `shutdown` request) drains the router —
// the backends' lifecycle is not touched — prints the per-backend stats
// table to stderr, and exits 0.
#include <csignal>
#include <cstdio>
#include <string>

#include "obs/log.h"
#include "obs/trace.h"
#include "router/router.h"
#include "util/cli.h"

namespace {

using namespace atlas;

// async-signal-safe flag; the main thread polls it while waiting.
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("backends", "",
           "comma-separated backend list (host:port or unix:/path)")
      .flag("host", "127.0.0.1", "TCP bind address")
      .flag("port", "7430", "TCP port (0 = ephemeral, -1 = disable TCP)")
      .flag("unix", "", "Unix-domain socket path (empty = disabled)")
      .flag("probe-interval-ms", "500", "health probe period per backend")
      .flag("probe-timeout-ms", "1000", "connect/IO bound per probe")
      .flag("probe-fail-threshold", "2",
            "consecutive probe failures before a backend leaves the ring")
      .flag("vnodes", "64", "virtual nodes per backend on the hash ring")
      .flag("replicas", "1",
            "shards eligible for each HOT placement key (1 = replication "
            "off; cold keys always stay single-owner)")
      .flag("hot-top-k", "8", "max concurrently hot placement keys")
      .flag("hot-min-requests", "16",
            "decayed request count before a key can be promoted to hot")
      .flag("overload-load", "8",
            "fresh wait-dominated load at/above this marks a shard "
            "overloaded (ranked last among replicas)")
      .flag("connect-timeout-ms", "2000", "data-path backend connect bound")
      .flag("allow-admin", "false",
            "fan client load_model/unload_model out to every backend "
            "(also gates trace_dump)")
      .flag("trace-out", "",
            "write a Chrome trace JSON at shutdown (also env ATLAS_TRACE)");
  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) return 0;
    if (!cli.str("trace-out").empty()) {
      obs::Trace::enable();
      obs::Trace::set_output_path(cli.str("trace-out"));
    } else {
      obs::init_trace_from_env();
    }
    if (cli.str("backends").empty()) {
      std::fprintf(stderr, "error: no backends configured (--backends)\n");
      return 1;
    }
    std::vector<router::BackendAddress> backends =
        router::parse_backend_list(cli.str("backends"));

    router::RouterConfig cfg;
    cfg.host = cli.str("host");
    cfg.port = static_cast<int>(cli.integer("port"));
    cfg.unix_path = cli.str("unix");
    cfg.probe.interval_ms = static_cast<int>(cli.integer("probe-interval-ms"));
    cfg.probe.timeout_ms = static_cast<int>(cli.integer("probe-timeout-ms"));
    cfg.probe.fail_threshold =
        static_cast<int>(cli.integer("probe-fail-threshold"));
    cfg.probe.vnodes = static_cast<std::size_t>(cli.integer("vnodes"));
    cfg.routing.replicas = static_cast<std::size_t>(cli.integer("replicas"));
    cfg.routing.hot_top_k =
        static_cast<std::size_t>(cli.integer("hot-top-k"));
    cfg.routing.hot_min_requests =
        static_cast<std::uint64_t>(cli.integer("hot-min-requests"));
    cfg.routing.overload_load =
        static_cast<std::uint64_t>(cli.integer("overload-load"));
    cfg.backend_connect_timeout_ms =
        static_cast<int>(cli.integer("connect-timeout-ms"));
    cfg.allow_admin = cli.boolean("allow-admin");
    cfg.verbose = true;

    router::Router rt(cfg, std::move(backends));

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    rt.start();
    obs::Trace::set_process_name(
        rt.port() >= 0 ? "atlas_router:" + std::to_string(rt.port())
                       : "atlas_router");
    {
      obs::LogLine line(obs::LogLevel::kInfo, "router");
      line.kv("event", "ready")
          .kv("ring", static_cast<std::int64_t>(rt.pool().ring_size()));
      if (rt.port() >= 0) line.kv("port", rt.port());
      if (!cfg.unix_path.empty()) line.kv("uds", cfg.unix_path);
    }
    rt.wait_for_stop_request([] { return g_signal != 0; });
    obs::LogLine(obs::LogLevel::kInfo, "router").kv("event", "draining");
    rt.stop();
    std::fprintf(stderr, "%s", rt.stats_text().c_str());
    if (obs::Trace::flush_file()) {
      obs::LogLine(obs::LogLevel::kInfo, "router")
          .kv("event", "trace_written")
          .kv("path", obs::Trace::output_path());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
