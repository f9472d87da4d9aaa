// atlas_serve — persistent ATLAS inference daemon.
//
// Loads one or more trained AtlasModel artifacts into a model registry at
// startup, then serves predict/stats/models/ping requests over TCP and/or
// a Unix-domain socket (see src/serve/protocol.h for the wire format).
// Repeat queries are amortized by the feature cache: the per-design graph
// build and, per (model, workload, cycles), the finished prediction are
// computed once and reused, so a warm request only serializes its answer.
//
// Each model may carry its own Liberty library (`name=model.bin@cells.lib`)
// so artifacts fine-tuned on different standard-cell substrates coexist in
// one daemon; models without a library use the built-in default. With
// --allow-admin, `atlas_client load/unload` swaps models at runtime without
// a restart — in-flight requests finish on the artifact they started with.
//
//   atlas_serve --models default=atlas_model.bin --port 7433
//   atlas_serve --models "a=a.bin,b=b.bin@tsmc40.lib" --port -1
//               --unix /tmp/atlas.sock --allow-admin
// (second example continues on one line: UDS-only with admin enabled)
//
// SIGTERM / SIGINT (or a client `shutdown` request) drains in-flight
// requests, dumps the stats block to stderr, and exits 0.
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace {

using namespace atlas;

// async-signal-safe flag; the main thread polls it while waiting.
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

/// Parse "name=path[@liberty],name2=path2" into the registry. The optional
/// @liberty suffix binds a per-model Liberty library; without it the model
/// parses request netlists against the built-in default library.
void load_models(serve::ModelRegistry& registry, const std::string& spec) {
  for (const std::string& item : util::split(spec, ',')) {
    const std::string entry(util::trim(item));
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      throw std::runtime_error(
          "bad --models entry (want name=path[@liberty]): " + entry);
    }
    const std::string name = entry.substr(0, eq);
    std::string path = entry.substr(eq + 1);
    std::string library_path;
    if (const auto at = path.find('@'); at != std::string::npos) {
      library_path = path.substr(at + 1);
      path = path.substr(0, at);
      if (path.empty() || library_path.empty()) {
        throw std::runtime_error(
            "bad --models entry (want name=path[@liberty]): " + entry);
      }
    }
    registry.load(name, path, library_path);
    obs::LogLine line(obs::LogLevel::kInfo, "serve");
    line.kv("event", "model_loaded").kv("model", name).kv("path", path);
    if (!library_path.empty()) line.kv("library", library_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("models", "default=atlas_model.bin",
           "comma-separated name=path model list")
      .flag("host", "127.0.0.1", "TCP bind address")
      .flag("port", "7433", "TCP port (0 = ephemeral, -1 = disable TCP)")
      .flag("unix", "", "Unix-domain socket path (empty = disabled)")
      .flag("cache-designs", "16", "feature-cache capacity (designs)")
      .flag("cache-embeddings", "8", "cached predictions per design")
      .flag("batch-max", "8", "max predict requests per dispatch batch")
      .flag("shed-depth", "0",
            "answer kOverloaded to COLD (uncached) predicts once this many "
            "jobs are queued or in flight (0 = never shed; warm requests "
            "are always admitted)")
      .flag("allow-admin", "false",
            "honor client load_model/unload_model/trace_dump requests")
      .flag("threads", "0",
            "worker threads (0 = hardware concurrency, 1 = serial)")
      .flag("slow-ms", "0",
            "log a structured per-phase breakdown for requests slower than "
            "this (~1 line/sec; 0 = disabled; predict_us is 0 on a "
            "result-cache hit)")
      .flag("trace-out", "",
            "write a Chrome trace JSON at shutdown (also env ATLAS_TRACE)");
  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) return 0;
    util::set_global_threads(static_cast<int>(cli.integer("threads")));
    if (!cli.str("trace-out").empty()) {
      obs::Trace::enable();
      obs::Trace::set_output_path(cli.str("trace-out"));
    } else {
      obs::init_trace_from_env();
    }

    auto registry = std::make_shared<serve::ModelRegistry>();
    load_models(*registry, cli.str("models"));
    if (registry->size() == 0) {
      std::fprintf(stderr, "error: no models loaded (--models)\n");
      return 1;
    }

    serve::ServerConfig cfg;
    cfg.host = cli.str("host");
    cfg.port = static_cast<int>(cli.integer("port"));
    cfg.unix_path = cli.str("unix");
    cfg.cache_designs = static_cast<std::size_t>(cli.integer("cache-designs"));
    cfg.cache_embeddings_per_design =
        static_cast<std::size_t>(cli.integer("cache-embeddings"));
    cfg.batch_max = static_cast<std::size_t>(cli.integer("batch-max"));
    cfg.shed_queue_depth = static_cast<std::size_t>(cli.integer("shed-depth"));
    cfg.allow_admin = cli.boolean("allow-admin");
    cfg.slow_ms = static_cast<int>(cli.integer("slow-ms"));
    cfg.verbose = true;

    serve::Server server(cfg, registry);

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    server.start();
    // Label this process's spans in merged fleet traces; the port is the
    // natural shard discriminator (resolved only now for ephemeral binds).
    obs::Trace::set_process_name(
        server.port() >= 0 ? "atlas_serve:" + std::to_string(server.port())
                           : "atlas_serve");
    {
      obs::LogLine line(obs::LogLevel::kInfo, "serve");
      line.kv("event", "ready");
      // server.port() is the -1 sentinel in UDS-only mode — not a port.
      if (server.port() >= 0) line.kv("port", server.port());
      if (!cfg.unix_path.empty()) line.kv("uds", cfg.unix_path);
    }
    server.wait_for_stop_request([] { return g_signal != 0; });
    obs::LogLine(obs::LogLevel::kInfo, "serve").kv("event", "draining");
    server.stop();
    std::fprintf(stderr, "%s", server.stats_text().c_str());
    if (obs::Trace::flush_file()) {
      obs::LogLine(obs::LogLevel::kInfo, "serve")
          .kv("event", "trace_written")
          .kv("path", obs::Trace::output_path());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
