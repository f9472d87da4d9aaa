// bench_serve — serving-path latency and throughput for atlas_serve.
//
// Trains a tiny model in-process, starts an in-process Server on an
// ephemeral loopback port, and measures over the real wire protocol:
//
//   * cold request latency (empty feature cache: parse + graphs + sim +
//     encoder + heads), sampled against fresh server instances;
//   * design-warm latency (graphs cached, new workload: sim + encoder +
//     heads);
//   * fully warm latency (embedding cache hit: GBDT heads only);
//   * streamed-trace latency, cold (upload + VCD parse + encoder + heads)
//     and warm (trace-hash embedding hit: upload + heads only);
//   * the same streamed predict over the binary ATDT delta encoding —
//     wire bytes vs the VCD text and warm latency — plus design-by-hash
//     (netlist referenced by FNV-1a hash instead of re-uploaded);
//   * warm requests/sec at 1, 4 and 8 concurrent client connections;
//   * distributed-tracing overhead: ObsSpan cost and warm predict latency
//     with tracing disabled / context-but-unsampled / fully sampled (the
//     disabled span site must cost nanoseconds);
//   * with --router, the same warm latency and throughput through an
//     atlas_router fronting a 2-backend fleet — the interesting number is
//     the per-hop routing overhead against the direct warm latency.
//
// Numbers land in EXPERIMENTS.md. The interesting ratio is cold : warm —
// the feature cache exists to delete the per-design preprocessing and
// encoder forwards from repeat queries.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "atlas/finetune.h"
#include "atlas/model.h"
#include "atlas/preprocess.h"
#include "atlas/pretrain.h"
#include "designgen/design_generator.h"
#include "netlist/verilog_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/router.h"
#include "sim/delta_trace.h"
#include "sim/vcd.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace {

using namespace atlas;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

serve::PredictRequest make_request(const std::string& verilog, int cycles,
                                   const std::string& workload) {
  serve::PredictRequest req;
  req.model = "bench";
  req.netlist_verilog = verilog;
  req.workload = workload;
  req.cycles = cycles;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("scale", "0.0025", "design size as a fraction of the paper's")
      .flag("cycles", "40", "workload cycles per request")
      .flag("dim", "16", "encoder embedding dimension")
      .flag("trees", "20", "GBDT estimators per group model")
      .flag("cold-samples", "3", "fresh-server samples for cold latency")
      .flag("warm-requests", "50", "warm requests per throughput client")
      .flag("threads", "0", "worker threads (0 = hardware concurrency)")
      .flag("router", "false",
            "also bench through atlas_router over a 2-backend fleet")
      .flag("skew", "false",
            "skewed volley (~70% of traffic on one design) through a "
            "3-backend router fleet, replicas=1 vs replicas=2")
      .flag("smoke", "false",
            "CI smoke: reduced sample counts, same end-to-end coverage");
  try {
    cli.parse(argc, argv);
    if (cli.help_requested()) return 0;
    util::set_global_threads(static_cast<int>(cli.integer("threads")));
    const int cycles = static_cast<int>(cli.integer("cycles"));
    const double scale = cli.real("scale");

    // --- train a tiny model + build the query design (off the clock) -------
    const liberty::Library lib = liberty::make_default_library();
    core::PreprocessConfig pcfg;
    pcfg.cycles = cycles;
    const core::DesignData train =
        core::prepare_design(designgen::paper_design_spec(1, scale), lib, pcfg);
    core::PretrainConfig pre_cfg;
    pre_cfg.epochs = 1;
    pre_cfg.cycles_per_graph = 1;
    pre_cfg.dim = static_cast<std::size_t>(cli.integer("dim"));
    core::PretrainResult pre = core::pretrain_encoder({&train}, pre_cfg);
    core::FinetuneConfig fcfg;
    fcfg.gbdt.n_trees = static_cast<int>(cli.integer("trees"));
    fcfg.cycle_stride = 4;
    core::GroupModels models = core::finetune_models({&train}, pre.encoder, fcfg);
    auto model = std::make_shared<const core::AtlasModel>(std::move(pre.encoder),
                                                          std::move(models));
    const std::string verilog = netlist::write_verilog(
        designgen::generate_design(designgen::paper_design_spec(2, scale), lib));

    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add("bench", model);
    serve::ServerConfig scfg;
    scfg.port = 0;

    std::printf("bench_serve: scale=%.4g cycles=%d dim=%zu trees=%d "
                "netlist=%zu bytes\n\n",
                scale, cycles, pre_cfg.dim, fcfg.gbdt.n_trees, verilog.size());

    // --- latency: cold (fresh server per sample) ---------------------------
    const bool smoke = cli.boolean("smoke");
    const int cold_samples =
        smoke ? 1 : static_cast<int>(cli.integer("cold-samples"));
    std::vector<double> cold_s;
    for (int i = 0; i < cold_samples; ++i) {
      serve::Server server(scfg, registry);
      server.start();
      serve::Client client =
          serve::Client::connect_tcp("127.0.0.1", server.port());
      util::Timer t;
      client.predict(make_request(verilog, cycles, "w1"));
      cold_s.push_back(t.seconds());
      server.stop();
    }

    // --- latency: design-warm (new workload) and fully warm ----------------
    double direct_warm_ms = 0.0;
    serve::Server server(scfg, registry);
    server.start();
    {
      serve::Client client =
          serve::Client::connect_tcp("127.0.0.1", server.port());
      client.predict(make_request(verilog, cycles, "w1"));  // prime
      util::Timer tw2;
      client.predict(make_request(verilog, cycles, "w2"));
      const double design_warm_s = tw2.seconds();

      std::vector<double> warm_s;
      for (int i = 0; i < 10; ++i) {
        util::Timer t;
        client.predict(make_request(verilog, cycles, "w1"));
        warm_s.push_back(t.seconds());
      }
      std::printf("latency (ms):\n");
      std::printf("  cold  (parse+graphs+sim+encode+heads)  %8.2f\n",
                  median(cold_s) * 1e3);
      std::printf("  design-warm (sim+encode+heads, w2)     %8.2f\n",
                  design_warm_s * 1e3);
      direct_warm_ms = median(warm_s) * 1e3;
      std::printf("  warm  (embedding hit -> heads only)    %8.2f\n\n",
                  direct_warm_ms);
    }

    // --- latency: streamed trace upload (cold, then trace-hash warm) -------
    {
      const netlist::Netlist query = netlist::parse_verilog(verilog, lib);
      sim::CycleSimulator simulator(query);
      sim::StimulusGenerator stimulus(query, sim::make_w1());
      const sim::ToggleTrace trace = simulator.run(stimulus, cycles);
      const std::string vcd =
          sim::write_vcd(query, trace, simulator.clock_net_mask());

      serve::StreamBeginRequest begin;
      begin.model = "bench";
      begin.netlist_verilog = verilog;
      begin.cycles = cycles;

      serve::Server stream_server(scfg, registry);
      stream_server.start();
      serve::Client client =
          serve::Client::connect_tcp("127.0.0.1", stream_server.port());
      util::Timer tc;
      client.predict_stream(begin, vcd);
      const double stream_cold_s = tc.seconds();
      std::vector<double> stream_warm_s;
      for (int i = 0; i < 10; ++i) {
        util::Timer t;
        client.predict_stream(begin, vcd);
        stream_warm_s.push_back(t.seconds());
      }
      std::printf("streamed trace (%zu KiB VCD):\n", vcd.size() >> 10);
      std::printf("  cold  (upload+parse+encode+heads)      %8.2f\n",
                  stream_cold_s * 1e3);
      std::printf("  warm  (upload -> trace-hash hit)       %8.2f\n\n",
                  median(stream_warm_s) * 1e3);

      // Same trace, binary delta encoding: the wire-byte ratio is the
      // headline (VCD re-states every net name; the delta ships bit-packed
      // toggles against the netlist the server already has).
      const std::string delta =
          sim::write_delta(query, trace, simulator.clock_net_mask());
      serve::StreamBeginRequest dbegin = begin;
      dbegin.format = serve::TraceFormat::kToggleDelta;
      util::Timer tdc;
      client.predict_stream(dbegin, delta);
      const double delta_cold_s = tdc.seconds();
      std::vector<double> delta_warm_s;
      for (int i = 0; i < 10; ++i) {
        util::Timer t;
        client.predict_stream(dbegin, delta);
        delta_warm_s.push_back(t.seconds());
      }
      std::printf("streamed trace, ATDT delta (%zu bytes, %.1fx smaller "
                  "than VCD):\n",
                  delta.size(),
                  static_cast<double>(vcd.size()) /
                      static_cast<double>(delta.size()));
      std::printf("  cold  (upload+decode+encode+heads)     %8.2f\n",
                  delta_cold_s * 1e3);
      std::printf("  warm  (upload -> trace-hash hit)       %8.2f\n\n",
                  median(delta_warm_s) * 1e3);

      // Design-by-hash on top of the delta encoding: the netlist text
      // (usually the biggest request component) stays off the wire too.
      std::vector<double> hash_warm_s;
      bool used_hash = false;
      for (int i = 0; i < 10; ++i) {
        util::Timer t;
        client.predict_stream_cached(dbegin, delta, 64 * 1024, &used_hash);
        hash_warm_s.push_back(t.seconds());
      }
      std::printf("streamed delta + design-by-hash (%s; %zu vs %zu request "
                  "bytes):\n",
                  used_hash ? "hash accepted" : "fell back to full upload",
                  delta.size() + 8, delta.size() + verilog.size());
      std::printf("  warm  (hash ref -> trace-hash hit)     %8.2f\n\n",
                  median(hash_warm_s) * 1e3);
      stream_server.stop();
    }

    // --- throughput: warm requests/sec at N concurrent clients -------------
    const int per_client =
        smoke ? 5 : static_cast<int>(cli.integer("warm-requests"));
    std::printf("warm throughput (%d requests/client):\n", per_client);
    for (int nclients : {1, 4, 8}) {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(nclients));
      util::Timer t;
      for (int c = 0; c < nclients; ++c) {
        threads.emplace_back([&] {
          serve::Client client =
              serve::Client::connect_tcp("127.0.0.1", server.port());
          for (int r = 0; r < per_client; ++r) {
            client.predict(make_request(verilog, cycles, "w1"));
          }
        });
      }
      for (std::thread& th : threads) th.join();
      const double secs = t.seconds();
      const double total = static_cast<double>(nclients) * per_client;
      std::printf("  %d client%s  %8.1f req/s  (%.2f ms/req at the client)\n",
                  nclients, nclients == 1 ? " " : "s", total / secs,
                  secs * 1e3 * nclients / total);
    }
    // --- tracing overhead: disabled vs unsampled vs sampled ----------------
    {
      // Micro: raw ObsSpan cost per tier. Disabled must be nanoseconds —
      // one relaxed atomic load, a thread-local read and a branch — since
      // every span site in the serving path pays it on every request.
      auto spin = [](int n) {
        util::Timer t;
        for (int i = 0; i < n; ++i) {
          obs::ObsSpan span("bench", "noop");
        }
        return t.seconds() / n * 1e9;
      };
      const double off_ns = spin(2'000'000);
      obs::Trace::enable();
      double unsampled_ns = 0.0;
      {
        obs::TraceContextScope scope(obs::make_root_context(false));
        unsampled_ns = spin(2'000'000);
      }
      double sampled_ns = 0.0;
      {
        obs::TraceContextScope scope(obs::make_root_context(true));
        sampled_ns = spin(200'000);
      }
      obs::Trace::disable();
      obs::Trace::clear();
      std::printf("tracing overhead, ObsSpan (ns/span):\n");
      std::printf("  disabled (no ambient context)          %8.1f\n", off_ns);
      std::printf("  context present, unsampled (id chain)  %8.1f\n",
                  unsampled_ns);
      std::printf("  sampled (clock reads + ring push)      %8.1f\n",
                  sampled_ns);

      // End-to-end: the same warm predict with the tracer enabled (client
      // originates a sampled root, context rides the wire, every server
      // span records) vs an unsampled context vs fully disabled
      // (direct warm above). The deltas should vanish into run-to-run
      // noise.
      serve::Client client =
          serve::Client::connect_tcp("127.0.0.1", server.port());
      client.predict(make_request(verilog, cycles, "w1"));  // re-prime
      obs::Trace::enable();
      std::vector<double> traced_s;
      for (int i = 0; i < 10; ++i) {
        util::Timer t;
        client.predict(make_request(verilog, cycles, "w1"));
        traced_s.push_back(t.seconds());
      }
      std::vector<double> unsampled_s;
      for (int i = 0; i < 10; ++i) {
        serve::PredictRequest req = make_request(verilog, cycles, "w1");
        req.ext.trace = obs::make_root_context(false);
        util::Timer t;
        client.predict(req);
        unsampled_s.push_back(t.seconds());
      }
      obs::Trace::disable();
      obs::Trace::clear();
      std::printf("tracing overhead, warm predict (ms):\n");
      std::printf("  disabled (direct warm above)           %8.2f\n",
                  direct_warm_ms);
      std::printf("  unsampled context on the wire          %8.2f\n",
                  median(unsampled_s) * 1e3);
      std::printf("  sampled end-to-end                     %8.2f\n\n",
                  median(traced_s) * 1e3);
    }

    // --- router tier: the same warm path through a 2-backend fleet ---------
    if (cli.boolean("router")) {
      serve::Server shard_a(scfg, registry);
      serve::Server shard_b(scfg, registry);
      shard_a.start();
      shard_b.start();
      std::vector<atlas::router::BackendAddress> backends;
      backends.push_back(atlas::router::parse_backend(
          "127.0.0.1:" + std::to_string(shard_a.port())));
      backends.push_back(atlas::router::parse_backend(
          "127.0.0.1:" + std::to_string(shard_b.port())));
      atlas::router::RouterConfig rcfg;
      rcfg.port = 0;
      atlas::router::Router rtr(rcfg, std::move(backends));
      rtr.start();
      serve::Client client =
          serve::Client::connect_tcp("127.0.0.1", rtr.port());
      client.predict(make_request(verilog, cycles, "w1"));  // warm the owner
      std::vector<double> routed_warm_s;
      for (int i = 0; i < 10; ++i) {
        util::Timer t;
        client.predict(make_request(verilog, cycles, "w1"));
        routed_warm_s.push_back(t.seconds());
      }
      const double routed_warm_ms = median(routed_warm_s) * 1e3;
      std::printf("\nrouter tier (2 backends, consistent-hash sharding):\n");
      std::printf("  warm via router                        %8.2f\n",
                  routed_warm_ms);
      std::printf("  routing overhead vs direct warm        %8.2f\n",
                  routed_warm_ms - direct_warm_ms);
      std::printf("  warm throughput via router (%d requests/client):\n",
                  per_client);
      for (int nclients : {1, 4, 8}) {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(nclients));
        util::Timer t;
        for (int c = 0; c < nclients; ++c) {
          threads.emplace_back([&] {
            serve::Client rc =
                serve::Client::connect_tcp("127.0.0.1", rtr.port());
            for (int r = 0; r < per_client; ++r) {
              rc.predict(make_request(verilog, cycles, "w1"));
            }
          });
        }
        for (std::thread& th : threads) th.join();
        const double secs = t.seconds();
        const double total = static_cast<double>(nclients) * per_client;
        std::printf(
            "    %d client%s  %8.1f req/s  (%.2f ms/req at the client)\n",
            nclients, nclients == 1 ? " " : "s", total / secs,
            secs * 1e3 * nclients / total);
      }
      rtr.stop();
      shard_a.stop();
      shard_b.stop();
    }

    // --- skewed workload: hot-design replication on vs off -----------------
    if (cli.boolean("skew")) {
      // The load-aware-routing acceptance volley: 3 shards, ~70% of the
      // traffic on ONE design, 4 concurrent clients. replicas=1 parks every
      // hot request on the design's single owner; replicas=2 lets the
      // queue-depth policy spread the hot key over its chain prefix. The
      // interesting numbers are the warm p99 (head-of-line blocking on the
      // owner) and the per-shard request spread.
      const int skew_clients = 4;
      const int volley = smoke ? 48 : 240;
      const int skew_per_client = volley / skew_clients;
      const std::string hot = verilog + "\n// skew-hot\n";
      std::vector<std::string> cold;
      for (int i = 0; i < 6; ++i) {
        cold.push_back(verilog + "\n// skew-cold-" + std::to_string(i) + "\n");
      }
      struct SkewResult {
        double p50_ms = 0, p99_ms = 0, rps = 0;
        std::vector<std::uint64_t> per_shard;
      };
      auto shard_requests = [](const std::string& id) {
        return obs::Registry::global()
            .counter("atlas_router_requests_total", "backend=\"" + id + "\"")
            .value();
      };
      // Simulated per-request service time: warm predicts on the tiny bench
      // design finish in microseconds, so on a one-core host the volley
      // would measure scheduler noise, not queueing. A 2 ms handler sleep
      // makes service time dominate — and because sleeps overlap across
      // shards, replication buys real parallel capacity like it does on a
      // multi-core fleet.
      serve::ServerConfig skew_cfg = scfg;
      skew_cfg.handler_delay_for_test_ms = 2;
      auto run_volley = [&](std::size_t replicas) {
        std::vector<std::unique_ptr<serve::Server>> shards;
        std::vector<std::string> ids;
        std::string csv;
        for (int i = 0; i < 3; ++i) {
          shards.push_back(std::make_unique<serve::Server>(skew_cfg, registry));
          shards.back()->start();
          ids.push_back("127.0.0.1:" + std::to_string(shards.back()->port()));
          csv += (i ? "," : "") + ids.back();
        }
        atlas::router::RouterConfig rcfg;
        rcfg.port = 0;
        rcfg.routing.replicas = replicas;
        // Replicate only the genuinely hot design: with the default top-k
        // the cold variants also cross hot_min_requests mid-volley, and
        // each fresh promotion makes its replica pay one cold encode
        // inside the timed window (promotion churn, not steady state).
        rcfg.routing.hot_top_k = 1;
        rcfg.routing.hot_min_requests = 8;
        atlas::router::Router rtr(rcfg, atlas::router::parse_backend_list(csv));
        rtr.start();
        {
          // Warm-up: prime the caches and cross hot_min_requests so the
          // measured volley runs in the promoted steady state.
          serve::Client wc =
              serve::Client::connect_tcp("127.0.0.1", rtr.port());
          for (int i = 0; i < 10; ++i) {
            wc.predict(make_request(hot, cycles, "w1"));
          }
          for (const std::string& v : cold) {
            wc.predict(make_request(v, cycles, "w1"));
          }
          // A concurrent hot burst: ties route to the owner, so only
          // in-flight load spills the hot key onto its replica — this burst
          // warms the replica's caches before the clock starts.
          std::vector<std::thread> burst;
          for (int c = 0; c < skew_clients; ++c) {
            burst.emplace_back([&] {
              serve::Client bc =
                  serve::Client::connect_tcp("127.0.0.1", rtr.port());
              for (int i = 0; i < 4; ++i) {
                bc.predict(make_request(hot, cycles, "w1"));
              }
            });
          }
          for (std::thread& th : burst) th.join();
        }
        std::vector<std::uint64_t> before;
        for (const std::string& id : ids) before.push_back(shard_requests(id));
        std::vector<std::vector<double>> lat(skew_clients);
        std::vector<std::thread> threads;
        util::Timer wall;
        for (int c = 0; c < skew_clients; ++c) {
          threads.emplace_back([&, c] {
            serve::Client rc =
                serve::Client::connect_tcp("127.0.0.1", rtr.port());
            for (int r = 0; r < skew_per_client; ++r) {
              const std::string& v = (r % 16) < 11
                                         ? hot
                                         : cold[static_cast<std::size_t>(
                                                    c * skew_per_client + r) %
                                                cold.size()];
              util::Timer t;
              rc.predict(make_request(v, cycles, "w1"));
              lat[static_cast<std::size_t>(c)].push_back(t.seconds());
            }
          });
        }
        for (std::thread& th : threads) th.join();
        const double secs = wall.seconds();
        std::vector<double> all;
        for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
        std::sort(all.begin(), all.end());
        SkewResult out;
        out.p50_ms = all[all.size() / 2] * 1e3;
        out.p99_ms =
            all[std::min(all.size() - 1,
                         static_cast<std::size_t>(
                             static_cast<double>(all.size()) * 0.99))] *
            1e3;
        out.rps = static_cast<double>(all.size()) / secs;
        for (std::size_t i = 0; i < ids.size(); ++i) {
          out.per_shard.push_back(shard_requests(ids[i]) - before[i]);
        }
        rtr.stop();
        for (auto& s : shards) s->stop();
        return out;
      };
      const SkewResult single = run_volley(1);
      const SkewResult replicated = run_volley(2);
      auto print_skew = [](const char* label, const SkewResult& r) {
        std::printf("  %s  p50 %7.2f ms  p99 %7.2f ms  %8.1f req/s  "
                    "shards %llu/%llu/%llu\n",
                    label, r.p50_ms, r.p99_ms, r.rps,
                    static_cast<unsigned long long>(r.per_shard[0]),
                    static_cast<unsigned long long>(r.per_shard[1]),
                    static_cast<unsigned long long>(r.per_shard[2]));
      };
      std::printf("\nskewed volley (3 backends, %d clients, ~70%% of %d "
                  "requests on one design):\n",
                  skew_clients, volley);
      print_skew("replicas=1 (single owner)  ", single);
      print_skew("replicas=2 (hot replicated)", replicated);
    }

    std::printf("\n%s", server.stats_text().c_str());
    server.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
