// atlas_client — command-line client for the atlas_serve daemon.
//
// Subcommands (all take --host/--port or --unix to pick the endpoint):
//   ping      round-trip health check
//   health    rich readiness report (registry generation, cache occupancy,
//             queue depth, drain state); exit 3 when the server is draining
//   models    list registered models (name + encoder dim)
//   stats     print the server's stats block
//   metrics   print the server's Prometheus metrics exposition
//   predict   send a gate-level Verilog netlist for per-cycle power -> CSV
//   stream    upload a real toggle trace (VCD or ATDT delta), predict -> CSV
//   load      admin: load/replace a model (+ optional Liberty library)
//   unload    admin: retire a model name (in-flight requests still finish)
//   shutdown  ask the daemon to drain and exit
//
// Offline (no server needed):
//   encode-trace  transcode a VCD toggle trace into the binary ATDT delta
//                 format the streamed-predict path ships (sim/delta_trace.h)
//
// `predict` mirrors `atlas_cli predict` but amortizes model loading and
// per-design preprocessing across calls: the daemon reports which cache
// layers were hit and how long the server-side handler took. `stream`
// mirrors `atlas_cli predict --vcd`: the same trace file served offline and
// online produces bit-identical predictions in either trace encoding, and
// --by-hash references an already-cached design by its netlist hash instead
// of re-uploading the Verilog (falling back to a full upload when the
// server answers kUnknownDesign).
#include <cstdio>
#include <string>
#include <vector>

#include "liberty/liberty_io.h"
#include "netlist/verilog_io.h"
#include "obs/trace.h"
#include "power/power_report.h"
#include "serve/client.h"
#include "sim/delta_trace.h"
#include "sim/vcd.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/serialize.h"
#include "util/strings.h"

namespace {

using namespace atlas;
using util::read_file;

util::Cli& add_endpoint_flags(util::Cli& cli) {
  return cli.flag("host", "127.0.0.1", "server TCP address")
      .flag("port", "7433", "server TCP port")
      .flag("unix", "", "Unix-domain socket path (overrides TCP when set)")
      .flag("timeout-ms", "0",
            "connect + per-IO bound; a dead or wedged server costs a bounded "
            "wait instead of hanging (0 = wait forever)")
      .flag("trace-out", "",
            "trace this command and write its client-side spans as Chrome "
            "trace JSON at exit; requests carry the trace context to the "
            "server (also env ATLAS_TRACE)");
}

serve::Client connect(const util::Cli& cli) {
  if (!cli.str("trace-out").empty()) {
    obs::Trace::enable();
    obs::Trace::set_output_path(cli.str("trace-out"));
  } else {
    obs::init_trace_from_env();
  }
  obs::Trace::set_process_name("atlas_client");
  serve::ClientOptions options;
  options.connect_timeout_ms = static_cast<int>(cli.integer("timeout-ms"));
  options.io_timeout_ms = options.connect_timeout_ms;
  const std::string unix_path = cli.str("unix");
  if (!unix_path.empty()) {
    return serve::Client::connect_unix(unix_path, options);
  }
  return serve::Client::connect_tcp(
      cli.str("host"), static_cast<int>(cli.integer("port")), options);
}

int cmd_ping(int argc, const char* const* argv) {
  util::Cli cli;
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  serve::Client client = connect(cli);
  client.ping();
  std::printf("pong\n");
  return 0;
}

int cmd_models(int argc, const char* const* argv) {
  util::Cli cli;
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  serve::Client client = connect(cli);
  for (const serve::ModelInfo& m : client.models()) {
    std::printf(
        "%s  (encoder dim %llu, library %s [%s], generation %llu)\n",
        m.name.c_str(), static_cast<unsigned long long>(m.encoder_dim),
        m.library.c_str(), util::hash_hex(m.library_hash).c_str(),
        static_cast<unsigned long long>(m.generation));
  }
  return 0;
}

int cmd_health(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("json", "false", "emit the report as one JSON object");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  serve::Client client = connect(cli);
  const serve::HealthResponse h = client.health();
  if (cli.boolean("json")) {
    // Rendered client-side from the decoded wire struct, so it works
    // against any server version.
    std::printf(
        "{\"status\":\"%s\",\"num_models\":%llu,"
        "\"registry_generation\":%llu,\"cache_designs\":%llu,"
        "\"cache_total_bytes\":%llu,\"cache_embedding_bytes\":%llu,"
        "\"queue_depth\":%llu}\n",
        h.draining ? "draining" : "ok",
        static_cast<unsigned long long>(h.num_models),
        static_cast<unsigned long long>(h.registry_generation),
        static_cast<unsigned long long>(h.cache_designs),
        static_cast<unsigned long long>(h.cache_total_bytes),
        static_cast<unsigned long long>(h.cache_embedding_bytes),
        static_cast<unsigned long long>(h.queue_depth));
    return h.draining ? 3 : 0;
  }
  std::printf("status: %s\n", h.draining ? "draining" : "ok");
  std::printf("models: %llu (registry generation %llu)\n",
              static_cast<unsigned long long>(h.num_models),
              static_cast<unsigned long long>(h.registry_generation));
  std::printf("cache: %llu designs, %llu bytes (%llu embedding bytes)\n",
              static_cast<unsigned long long>(h.cache_designs),
              static_cast<unsigned long long>(h.cache_total_bytes),
              static_cast<unsigned long long>(h.cache_embedding_bytes));
  std::printf("queue depth: %llu\n",
              static_cast<unsigned long long>(h.queue_depth));
  return h.draining ? 3 : 0;
}

int cmd_load(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("name", "", "registry name to publish the model under")
      .flag("path", "", "AtlasModel artifact path (on the server)")
      .flag("library", "",
            "Liberty library path on the server (empty = server default)");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  if (cli.str("name").empty() || cli.str("path").empty()) {
    std::fprintf(stderr, "load requires --name and --path\n");
    return 1;
  }
  serve::Client client = connect(cli);
  client.load_model(cli.str("name"), cli.str("path"), cli.str("library"));
  std::printf("loaded %s\n", cli.str("name").c_str());
  return 0;
}

int cmd_unload(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("name", "", "registry name to retire");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  if (cli.str("name").empty()) {
    std::fprintf(stderr, "unload requires --name\n");
    return 1;
  }
  serve::Client client = connect(cli);
  client.unload_model(cli.str("name"));
  std::printf("unloaded %s\n", cli.str("name").c_str());
  return 0;
}

int cmd_stats(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("json", "false",
           "ask the server for the snapshot as one JSON object (a router "
           "ignores the selector and answers its backend table)");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  serve::Client client = connect(cli);
  const std::string text = client.stats_text(cli.boolean("json"));
  std::printf(cli.boolean("json") ? "%s\n" : "%s", text.c_str());
  return 0;
}

int cmd_metrics(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("fleet", "false",
           "against a router: merge every backend's exposition with "
           "per-shard shard=\"host:port\" labels");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  serve::Client client = connect(cli);
  std::printf("%s", client.metrics_text(cli.boolean("fleet")).c_str());
  return 0;
}

int cmd_trace(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("out", "merged_trace.json",
           "merged Chrome trace output (open in chrome://tracing / Perfetto)")
      .flag("merge", "",
            "comma-separated extra Chrome trace JSON files (e.g. this "
            "client's own --trace-out dump) spliced into the timeline");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  serve::Client client = connect(cli);
  // A router answers with the whole fleet's spans already merged; a plain
  // serve daemon answers its own ring. Either way the dump drains the
  // remote ring (admin capability — the peer needs --allow-admin).
  std::vector<std::string> parts;
  parts.push_back(client.trace_dump_text());
  for (const std::string& item : util::split(cli.str("merge"), ',')) {
    const std::string path(util::trim(item));
    if (path.empty()) continue;
    parts.push_back(read_file(path));
  }
  util::write_file(cli.str("out"), obs::merge_chrome_json(parts));
  std::printf("wrote %s (%zu source dumps)\n", cli.str("out").c_str(),
              parts.size());
  return 0;
}

int cmd_shutdown(int argc, const char* const* argv) {
  util::Cli cli;
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  serve::Client client = connect(cli);
  client.shutdown_server();
  std::printf("server shutting down\n");
  return 0;
}

void write_prediction_csv(const serve::PredictResponse& resp,
                          const std::string& csv_path) {
  util::write_file(csv_path, power::prediction_csv(resp.design));
  std::printf("%s", power::prediction_summary(resp.design).c_str());
  std::printf("server: %.1f ms, cache %s/%s; wrote %s\n",
              resp.server_seconds * 1e3,
              resp.design_cache_hit() ? "design-hit" : "design-miss",
              resp.embedding_cache_hit() ? "emb-hit" : "emb-miss",
              csv_path.c_str());
}

int cmd_stream(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("model", "default", "registry name of the model to query")
      .flag("in", "design.v", "gate-level Verilog input")
      .flag("trace", "trace.vcd",
            "toggle trace to upload (VCD text or ATDT delta file)")
      .flag("format", "auto",
            "wire trace format: auto (sniff the file) | vcd | delta")
      .flag("by-hash", "false",
            "reference the design by netlist hash; falls back to a full "
            "upload when the server's cache is cold")
      .flag("cycles", "0", "expected trace cycles (0 = accept any)")
      .flag("deadline-ms", "0", "per-request deadline incl. upload (0 = none)")
      .flag("chunk-bytes", "65536", "upload chunk size")
      .flag("csv", "atlas_power.csv", "per-cycle predicted power CSV");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;

  const std::string trace_bytes = read_file(cli.str("trace"));
  const bool file_is_delta = atlas::sim::looks_like_delta(trace_bytes);
  const std::string format = cli.str("format");
  if (format == "vcd" && file_is_delta) {
    std::fprintf(stderr, "%s is an ATDT delta file; use --format auto|delta\n",
                 cli.str("trace").c_str());
    return 1;
  }
  if (format == "delta" && !file_is_delta) {
    std::fprintf(stderr,
                 "%s is not an ATDT delta file; convert it first with "
                 "`atlas_client encode-trace`\n",
                 cli.str("trace").c_str());
    return 1;
  }
  if (format != "auto" && format != "vcd" && format != "delta") {
    std::fprintf(stderr, "unknown --format %s (use auto|vcd|delta)\n",
                 format.c_str());
    return 1;
  }

  serve::StreamBeginRequest begin;
  begin.model = cli.str("model");
  begin.netlist_verilog = read_file(cli.str("in"));
  begin.format = file_is_delta ? serve::TraceFormat::kToggleDelta
                               : serve::TraceFormat::kVcdText;
  begin.cycles = static_cast<std::int32_t>(cli.integer("cycles"));
  begin.deadline_ms = static_cast<std::uint32_t>(cli.integer("deadline-ms"));

  serve::Client client = connect(cli);
  const std::size_t chunk =
      static_cast<std::size_t>(cli.integer("chunk-bytes"));
  serve::PredictResponse resp;
  if (cli.boolean("by-hash")) {
    bool used_hash = false;
    resp = client.predict_stream_cached(begin, trace_bytes, chunk, &used_hash);
    std::printf("design reference: %s\n",
                used_hash ? "by-hash (netlist not re-sent)"
                          : "full upload (server cache was cold)");
  } else {
    resp = client.predict_stream(begin, trace_bytes, chunk);
  }
  write_prediction_csv(resp, cli.str("csv"));
  return 0;
}

int cmd_encode_trace(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("in", "design.v", "gate-level Verilog the trace was dumped from")
      .flag("lib", "", "Liberty file (default: built-in library)")
      .flag("vcd", "trace.vcd", "VCD toggle trace to transcode")
      .flag("out", "trace.atdt", "ATDT delta output path")
      .parse(argc, argv);
  if (cli.help_requested()) return 0;

  const liberty::Library lib =
      cli.str("lib").empty() ? liberty::make_default_library()
                             : liberty::load_liberty_file(cli.str("lib"));
  const netlist::Netlist nl = netlist::load_verilog_file(cli.str("in"), lib);
  const std::string vcd_text = read_file(cli.str("vcd"));
  const sim::ToggleTrace trace = sim::parse_vcd(vcd_text, nl);
  const std::string delta = sim::write_delta(
      nl, trace, sim::CycleSimulator(nl).clock_net_mask());
  util::write_file(cli.str("out"), delta);
  std::printf("wrote %s: %d cycles, %zu nets; %zu -> %zu bytes (%.1fx)\n",
              cli.str("out").c_str(), trace.num_cycles(), trace.num_nets(),
              vcd_text.size(), delta.size(),
              delta.empty() ? 0.0
                            : static_cast<double>(vcd_text.size()) /
                                  static_cast<double>(delta.size()));
  return 0;
}

int cmd_predict(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("model", "default", "registry name of the model to query")
      .flag("in", "design.v", "gate-level Verilog input")
      .flag("workload", "w1", "workload (w1 | w2)")
      .flag("cycles", "300", "cycles to simulate")
      .flag("deadline-ms", "0", "per-request deadline (0 = none)")
      .flag("csv", "atlas_power.csv", "per-cycle predicted power CSV")
      .flag("show-load", "false",
            "also print the server's load report (queued + in-flight jobs, "
            "wait- vs compute-dominated) attached to the reply");
  add_endpoint_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;

  serve::PredictRequest req;
  req.model = cli.str("model");
  req.netlist_verilog = read_file(cli.str("in"));
  req.workload = cli.str("workload");
  req.cycles = static_cast<std::int32_t>(cli.integer("cycles"));
  req.deadline_ms = static_cast<std::uint32_t>(cli.integer("deadline-ms"));

  serve::Client client = connect(cli);
  serve::PredictResponse resp;
  if (cli.boolean("show-load")) {
    serve::LoadReport load;
    resp = client.predict(req, &load);
    if (resp.has_load) {
      std::printf("server load: %llu jobs queued or in flight (%s)\n",
                  static_cast<unsigned long long>(load.load),
                  load.wait_dominated() ? "wait-dominated"
                                        : "compute-dominated");
    } else {
      std::printf("server load: no load report attached (a router strips "
                  "it)\n");
    }
  } else {
    resp = client.predict(req);
  }
  write_prediction_csv(resp, cli.str("csv"));
  return 0;
}

void usage() {
  std::puts(
      "usage: atlas_client <command> [flags]   (--help per command)\n"
      "  ping      round-trip health check\n"
      "  health    rich readiness report (cache occupancy, queue, drain)\n"
      "  models    list models registered on the server\n"
      "  stats     print server stats (--json for one JSON object)\n"
      "  metrics   print the Prometheus exposition (--fleet: via a router,\n"
      "            every backend merged with shard=\"host:port\" labels)\n"
      "  trace     admin: pull the fleet's spans as one merged Chrome trace\n"
      "  predict   per-cycle power for a gate-level netlist -> CSV\n"
      "  stream    upload a toggle trace (VCD or ATDT delta), predict -> CSV\n"
      "  encode-trace  offline: transcode a VCD trace to ATDT delta bytes\n"
      "  load      admin: load/replace a model (needs server --allow-admin)\n"
      "  unload    admin: retire a model name\n"
      "  shutdown  drain and stop the server");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  // Commands that traced themselves (--trace-out / ATLAS_TRACE with an
  // output path) dump their client-side spans on the way out, success or
  // error — a failed traced request is exactly the one worth looking at.
  struct TraceFlusher {
    ~TraceFlusher() {
      if (atlas::obs::Trace::flush_file()) {
        std::fprintf(stderr, "client trace written: %s\n",
                     atlas::obs::Trace::output_path().c_str());
      }
    }
  } trace_flusher;
  try {
    if (cmd == "ping") return cmd_ping(argc - 1, argv + 1);
    if (cmd == "health") return cmd_health(argc - 1, argv + 1);
    if (cmd == "models") return cmd_models(argc - 1, argv + 1);
    if (cmd == "stats") return cmd_stats(argc - 1, argv + 1);
    if (cmd == "metrics") return cmd_metrics(argc - 1, argv + 1);
    if (cmd == "trace") return cmd_trace(argc - 1, argv + 1);
    if (cmd == "predict") return cmd_predict(argc - 1, argv + 1);
    if (cmd == "stream") return cmd_stream(argc - 1, argv + 1);
    if (cmd == "encode-trace") return cmd_encode_trace(argc - 1, argv + 1);
    if (cmd == "load") return cmd_load(argc - 1, argv + 1);
    if (cmd == "unload") return cmd_unload(argc - 1, argv + 1);
    if (cmd == "shutdown") return cmd_shutdown(argc - 1, argv + 1);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    usage();
    return 1;
  } catch (const serve::ServeError& e) {
    // One greppable line per server-side rejection, uniform exit code: a
    // script wrapping atlas_client can branch on "error: kUnknownModel:"
    // (or kAdminDisabled, kStreamProtocol, ...) without parsing numbers.
    std::fprintf(stderr, "error: %s: %s\n", serve::error_code_name(e.code()),
                 e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
