// End-to-end and robustness tests for the atlas_serve subsystem.
//
// A tiny ATLAS model is trained once for the whole suite; each test spins
// up an in-process Server on an ephemeral loopback port (or a Unix socket)
// and talks to it through the real client library / raw sockets, so the
// full wire path — framing, dispatch batching, feature cache, GBDT heads —
// is exercised exactly as the daemon runs it. The front-end lifecycle cases
// (hostile frames, UDS-only endpoints, the client stop latch) also run
// against an atlas_router in front of the server: both daemons share that
// front end through serve::ConnectionHost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "atlas/finetune.h"
#include "atlas/model.h"
#include "atlas/preprocess.h"
#include "atlas/pretrain.h"
#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "liberty/liberty_io.h"
#include "netlist/verilog_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/router.h"
#include "serve/client.h"
#include "serve/feature_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "sim/delta_trace.h"
#include "sim/external_trace.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "sim/vcd.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace atlas::serve {
namespace {

constexpr int kCycles = 20;

/// `stem` + a per-process suffix + `ext` under the test temp dir, removed
/// when the object goes out of scope: two concurrent runs of this suite
/// never share (or rewrite) a file, and runs leave none behind.
class TempFile {
 public:
  TempFile(const std::string& stem, const std::string& ext)
      : path_(::testing::TempDir() + stem + "." + std::to_string(::getpid()) +
              ext) {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Expensive shared state: a trained tiny model, a query design's Verilog
/// text, and the reference prediction computed directly (no server).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new liberty::Library(liberty::make_default_library());

    core::PreprocessConfig pcfg;
    pcfg.cycles = 40;
    const core::DesignData train = core::prepare_design(
        designgen::paper_design_spec(1, 0.0025), *lib_, pcfg);

    core::PretrainConfig pre_cfg;
    pre_cfg.epochs = 1;
    pre_cfg.cycles_per_graph = 1;
    pre_cfg.dim = 16;
    core::PretrainResult pre = core::pretrain_encoder({&train}, pre_cfg);
    core::FinetuneConfig fcfg;
    fcfg.gbdt.n_trees = 20;
    fcfg.cycle_stride = 4;
    core::GroupModels models =
        core::finetune_models({&train}, pre.encoder, fcfg);
    model_ = new std::shared_ptr<const core::AtlasModel>(
        std::make_shared<const core::AtlasModel>(std::move(pre.encoder),
                                                 std::move(models)));

    // Query design: generation only (no layout/golden needed to predict).
    const netlist::Netlist query = designgen::generate_design(
        designgen::paper_design_spec(2, 0.0025), *lib_);
    verilog_ = new std::string(netlist::write_verilog(query));

    expected_w1_ = new core::Prediction(direct_predict("w1"));
  }

  static void TearDownTestSuite() {
    delete expected_w1_;
    delete verilog_;
    delete model_;
    delete lib_;
    expected_w1_ = nullptr;
    verilog_ = nullptr;
    model_ = nullptr;
    lib_ = nullptr;
  }

  /// The exact computation the server performs, done inline: parse the
  /// request text against `lib`, build graphs, simulate, predict with
  /// `model`.
  static core::Prediction direct_predict_with(const core::AtlasModel& model,
                                              const liberty::Library& lib,
                                              const std::string& workload) {
    netlist::Netlist gate = netlist::parse_verilog(*verilog_, lib);
    const auto graphs = graph::build_submodule_graphs(gate);
    sim::CycleSimulator simulator(gate);
    sim::WorkloadSpec spec = workload == "w2" ? sim::make_w2() : sim::make_w1();
    sim::StimulusGenerator stimulus(gate, spec);
    const sim::ToggleTrace trace = simulator.run(stimulus, kCycles);
    return model.predict(gate, graphs, trace);
  }

  static core::Prediction direct_predict(const std::string& workload) {
    return direct_predict_with(**model_, *lib_, workload);
  }

  /// A second standard-cell substrate: same cell names (so the query
  /// Verilog parses), internal-energy LUTs and leakage scaled 2x — a
  /// different library content hash and different graph features.
  static liberty::Library scaled_library() {
    liberty::Library out("atlas40lp_x2", lib_->voltage(),
                         lib_->clock_period_ns());
    for (liberty::Cell c : lib_->cells()) {
      for (double& e : c.energy_fj) e *= 2.0;
      c.leakage_uw *= 2.0;
      out.add_cell(std::move(c));
    }
    return out;
  }

  static std::shared_ptr<ModelRegistry> make_registry() {
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("tiny", *model_);
    return registry;
  }

  /// A router fronting `backend`, started. `cfg` picks its endpoints.
  static std::unique_ptr<router::Router> start_router(
      const Server& backend, router::RouterConfig cfg = {}) {
    cfg.probe.interval_ms = 100;
    auto rt = std::make_unique<router::Router>(
        cfg, router::parse_backend_list("127.0.0.1:" +
                                        std::to_string(backend.port())));
    rt->start();
    return rt;
  }

  /// The stop latch: a client Shutdown is visible through stop_requested()
  /// by the time its ack arrives, and wakes a blocked
  /// wait_for_stop_request() through the condition variable, not a poll.
  template <typename Daemon>
  static void expect_shutdown_wakes_waiter_promptly(Daemon& daemon) {
    EXPECT_FALSE(daemon.stop_requested());
    std::atomic<bool> woke{false};
    std::thread waiter([&] {
      daemon.wait_for_stop_request();
      woke.store(true);
    });
    // Give the waiter time to block in the condition-variable wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(woke.load());

    Client client = Client::connect_tcp("127.0.0.1", daemon.port());
    const auto t0 = std::chrono::steady_clock::now();
    client.shutdown_server();
    EXPECT_TRUE(daemon.stop_requested());
    waiter.join();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_TRUE(woke.load());
    // A 50ms poll would wake after ~25ms on average; the condition
    // variable wakes in microseconds. Generous margin for CI.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              25);
    daemon.wait_for_stop_request();  // latched: returns at once
  }

  static PredictRequest make_request(const std::string& workload = "w1",
                                     const std::string& model = "tiny") {
    PredictRequest req;
    req.model = model;
    req.netlist_verilog = *verilog_;
    req.workload = workload;
    req.cycles = kCycles;
    req.want_submodules = true;
    return req;
  }

  static void expect_matches_direct(const PredictResponse& resp,
                                    const core::Prediction& expected) {
    ASSERT_EQ(resp.num_cycles, expected.num_cycles);
    ASSERT_EQ(resp.num_submodules, expected.num_submodules);
    ASSERT_EQ(resp.design.size(), expected.design.size());
    for (std::size_t c = 0; c < expected.design.size(); ++c) {
      // Bit-identical, not approximately equal: the serve path must be the
      // same computation as a direct AtlasModel::predict call.
      EXPECT_EQ(resp.design[c].comb, expected.design[c].comb) << "cycle " << c;
      EXPECT_EQ(resp.design[c].reg, expected.design[c].reg) << "cycle " << c;
      EXPECT_EQ(resp.design[c].clock, expected.design[c].clock)
          << "cycle " << c;
    }
    ASSERT_EQ(resp.submodule.size(), expected.submodule.size());
    for (std::size_t i = 0; i < expected.submodule.size(); ++i) {
      EXPECT_EQ(resp.submodule[i].comb, expected.submodule[i].comb);
      EXPECT_EQ(resp.submodule[i].reg, expected.submodule[i].reg);
      EXPECT_EQ(resp.submodule[i].clock, expected.submodule[i].clock);
    }
  }

  /// Bit-exact comparison of per-cycle group power (no operator== on
  /// GroupPower: approximate comparison is the norm everywhere else).
  static bool same_bits(const std::vector<power::GroupPower>& a,
                        const std::vector<power::GroupPower>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].comb != b[i].comb || a[i].reg != b[i].reg ||
          a[i].clock != b[i].clock) {
        return false;
      }
    }
    return true;
  }

  static liberty::Library* lib_;
  static std::shared_ptr<const core::AtlasModel>* model_;
  static std::string* verilog_;
  static core::Prediction* expected_w1_;
};

liberty::Library* ServeTest::lib_ = nullptr;
std::shared_ptr<const core::AtlasModel>* ServeTest::model_ = nullptr;
std::string* ServeTest::verilog_ = nullptr;
core::Prediction* ServeTest::expected_w1_ = nullptr;

ServerConfig loopback_config() {
  ServerConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;  // ephemeral
  return cfg;
}

TEST_F(ServeTest, PingModelsAndStats) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  client.ping();
  const auto models = client.models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].name, "tiny");
  EXPECT_EQ(models[0].encoder_dim, 16u);
  const std::string stats = client.stats_text();
  EXPECT_NE(stats.find("ping"), std::string::npos);
  EXPECT_NE(stats.find("cache:"), std::string::npos);
  server.stop();
}

TEST_F(ServeTest, HealthReportsRegistryCacheQueueAndDrainState) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  const HealthResponse cold = client.health();
  EXPECT_EQ(cold.num_models, 1u);
  EXPECT_GE(cold.registry_generation, 1u);
  EXPECT_EQ(cold.cache_designs, 0u);
  EXPECT_EQ(cold.cache_total_bytes, 0u);
  EXPECT_EQ(cold.queue_depth, 0u);
  EXPECT_FALSE(cold.draining);

  // A predict leaves its footprint in the occupancy fields — the signal a
  // routing tier reads as "this shard is warm".
  client.predict(make_request());
  const HealthResponse warm = client.health();
  EXPECT_EQ(warm.cache_designs, 1u);
  EXPECT_GT(warm.cache_total_bytes, 0u);
  EXPECT_GT(warm.cache_embedding_bytes, 0u);
  EXPECT_LT(warm.cache_embedding_bytes, warm.cache_total_bytes);

  // After a Shutdown request the report flips to draining — richer than
  // ping, which keeps answering pong right up to the close.
  client.shutdown_server();
  EXPECT_TRUE(client.health().draining);
  client.ping();
  server.stop();
}

TEST_F(ServeTest, HealthQueueDepthCountsJobsInFlight) {
  // The dispatcher takes a job out of its queue the moment it forms a
  // batch, so the queue's length reads 0 on a busy shard. The health report
  // carries the admitted-but-unanswered count instead: the figure a
  // router's prober stores as the shard's load.
  ServerConfig cfg = loopback_config();
  cfg.dispatch_delay_for_test_ms = 500;  // hold the formed batch
  Server server(cfg, make_registry());
  server.start();
  std::thread requester([&] {
    Client client = Client::connect_tcp("127.0.0.1", server.port());
    expect_matches_direct(client.predict(make_request()), *expected_w1_);
  });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.inflight_jobs() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Long past the dispatcher's wake-up, well inside the held batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client prober = Client::connect_tcp("127.0.0.1", server.port());
  EXPECT_GE(prober.health().queue_depth, 1u);
  requester.join();
  EXPECT_EQ(prober.health().queue_depth, 0u);
  server.stop();
}

TEST_F(ServeTest, ModelListCarriesTheLibraryContentHash) {
  // The library content hash is the second component of the design-cache
  // key; a routing tier mixes it into placement, so it must travel on the
  // wire and match liberty::content_hash exactly.
  const auto x2 = std::make_shared<const liberty::Library>(scaled_library());
  auto registry = make_registry();
  registry->add("tiny_x2", *model_, x2);

  Server server(loopback_config(), registry);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const auto models = client.models();
  ASSERT_EQ(models.size(), 2u);
  for (const ModelInfo& m : models) {
    const liberty::Library& lib = m.name == "tiny_x2" ? *x2 : *lib_;
    EXPECT_EQ(m.library_hash, liberty::content_hash(lib)) << m.name;
    EXPECT_NE(m.library_hash, 0u) << m.name;
  }
  EXPECT_NE(models[0].library_hash, models[1].library_hash);
  server.stop();
}

TEST_F(ServeTest, ClientTimeoutsBoundANeverAnsweringPeer) {
  // A listener nobody ever accepts from: the TCP handshake completes into
  // the kernel backlog, so connect succeeds — and then the reply never
  // comes. Without an IO timeout this hangs forever; with one it is a
  // deterministic bounded failure (this is the regression test for the
  // serve::Client timeout plumbing the router's prober depends on).
  int port = 0;
  util::Listener trap = util::Listener::tcp("127.0.0.1", port);

  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 250;
  const auto t0 = std::chrono::steady_clock::now();
  Client client = Client::connect_tcp("127.0.0.1", port, options);
  try {
    client.ping();
    FAIL() << "expected SocketError";
  } catch (const util::SocketError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed_ms, 200);
  EXPECT_LT(elapsed_ms, 5000) << "timeout did not bound the wait";
}

TEST_F(ServeTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kBadRequest), "kBadRequest");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknownModel), "kUnknownModel");
  EXPECT_STREQ(error_code_name(ErrorCode::kAdminDisabled), "kAdminDisabled");
  EXPECT_STREQ(error_code_name(ErrorCode::kStreamProtocol), "kStreamProtocol");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknownDesign), "kUnknownDesign");
  EXPECT_STREQ(error_code_name(static_cast<ErrorCode>(999)),
               "kUnknownErrorCode");
}

TEST_F(ServeTest, PredictBitIdenticalAndCachePath) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  // Cold: no cache layer hit; results bit-identical to direct predict.
  const PredictResponse cold = client.predict(make_request());
  EXPECT_FALSE(cold.design_cache_hit());
  EXPECT_FALSE(cold.embedding_cache_hit());
  expect_matches_direct(cold, *expected_w1_);

  // Warm repeat: both layers hit (straight to the GBDT heads), same bits.
  const PredictResponse warm = client.predict(make_request());
  EXPECT_TRUE(warm.design_cache_hit());
  EXPECT_TRUE(warm.embedding_cache_hit());
  expect_matches_direct(warm, *expected_w1_);

  // Same design, new workload: graphs reused, encoder re-runs.
  const PredictResponse w2 = client.predict(make_request("w2"));
  EXPECT_TRUE(w2.design_cache_hit());
  EXPECT_FALSE(w2.embedding_cache_hit());
  expect_matches_direct(w2, direct_predict("w2"));

  const FeatureCacheStats cache = server.cache_stats();
  EXPECT_EQ(cache.design_hits, 2u);
  EXPECT_EQ(cache.design_misses, 1u);
  EXPECT_EQ(cache.embedding_hits, 1u);
  EXPECT_EQ(cache.embedding_misses, 2u);
  server.stop();
}

TEST_F(ServeTest, ConcurrentClientsAllBitIdentical) {
  ServerConfig cfg = loopback_config();
  cfg.batch_max = 4;
  Server server(cfg, make_registry());
  server.start();

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::vector<std::vector<PredictResponse>> results(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client = Client::connect_tcp("127.0.0.1", server.port());
      for (int r = 0; r < kRequestsEach; ++r) {
        results[static_cast<std::size_t>(t)].push_back(
            client.predict(make_request()));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const auto& per_client : results) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kRequestsEach));
    for (const PredictResponse& resp : per_client) {
      expect_matches_direct(resp, *expected_w1_);
    }
  }
  server.stop();
}

TEST_F(ServeTest, WarmHitServesSubmoduleRowsWhateverThePrimingRequestAsked) {
  // The result cache holds the whole prediction; want_submodules only picks
  // what one reply carries. A key primed without sub-module rows must still
  // answer a later request that wants them, and the reverse.
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  PredictRequest lean = make_request();
  lean.want_submodules = false;
  const PredictResponse primed = client.predict(lean);
  EXPECT_FALSE(primed.embedding_cache_hit());
  EXPECT_TRUE(primed.submodule.empty());
  EXPECT_TRUE(same_bits(primed.design, expected_w1_->design));
  const PredictResponse full = client.predict(make_request());
  EXPECT_TRUE(full.embedding_cache_hit());
  expect_matches_direct(full, *expected_w1_);

  const core::Prediction expected_w2 = direct_predict("w2");
  const PredictResponse primed_full = client.predict(make_request("w2"));
  EXPECT_FALSE(primed_full.embedding_cache_hit());
  expect_matches_direct(primed_full, expected_w2);
  PredictRequest lean_w2 = make_request("w2");
  lean_w2.want_submodules = false;
  const PredictResponse lean_hit = client.predict(lean_w2);
  EXPECT_TRUE(lean_hit.embedding_cache_hit());
  EXPECT_TRUE(lean_hit.submodule.empty());
  EXPECT_EQ(lean_hit.num_submodules, expected_w2.num_submodules);
  EXPECT_TRUE(same_bits(lean_hit.design, expected_w2.design));
  server.stop();
}

TEST_F(ServeTest, IdenticalColdRequestsInOneBatchCacheOnePrediction) {
  // Two identical cold requests in one dispatcher batch both run the
  // encoder and the heads, and both insert: the first insert wins, both
  // replies are the same bits, and the cache keeps a single entry.
  ServerConfig cfg = loopback_config();
  cfg.batch_max = 4;
  cfg.dispatch_delay_for_test_ms = 300;
  Server server(cfg, make_registry());
  server.start();

  // A blocker parks the dispatcher in its batch's delay so both cold
  // requests queue up behind it. Its unknown model touches no cache entry.
  std::thread blocker([&] {
    Client client = Client::connect_tcp("127.0.0.1", server.port());
    try {
      client.predict(make_request("w1", "no_such_model"));
      ADD_FAILURE() << "expected kUnknownModel";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnknownModel);
    }
  });
  while (server.inflight_jobs() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  PredictResponse replies[2];
  std::vector<std::thread> racers;
  for (PredictResponse& reply : replies) {
    racers.emplace_back([&] {
      Client client = Client::connect_tcp("127.0.0.1", server.port());
      reply = client.predict(make_request());
    });
  }
  for (std::thread& t : racers) t.join();
  blocker.join();

  // Both missed (so they shared a batch: a later batch would have hit).
  for (const PredictResponse& reply : replies) {
    EXPECT_FALSE(reply.embedding_cache_hit());
    expect_matches_direct(reply, *expected_w1_);
  }
  EXPECT_TRUE(same_bits(replies[0].design, replies[1].design));
  EXPECT_TRUE(same_bits(replies[0].submodule, replies[1].submodule));
  const HealthResponse health = server.health_snapshot();
  EXPECT_EQ(health.cache_designs, 1u);
  EXPECT_EQ(health.cache_embedding_bytes,
            approx_prediction_bytes(*expected_w1_));
  EXPECT_EQ(server.cache_stats().embedding_misses, 2u);
  EXPECT_EQ(server.cache_stats().embedding_drops, 0u);

  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const PredictResponse warm = client.predict(make_request());
  EXPECT_TRUE(warm.embedding_cache_hit());
  expect_matches_direct(warm, *expected_w1_);
  server.stop();
}

TEST_F(ServeTest, BadRequestsGetErrorResponsesNotCrashes) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  PredictRequest unknown_model = make_request();
  unknown_model.model = "no_such_model";
  try {
    client.predict(unknown_model);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownModel);
  }

  PredictRequest bad_workload = make_request();
  bad_workload.workload = "w9";
  try {
    client.predict(bad_workload);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownWorkload);
  }

  PredictRequest bad_netlist = make_request();
  bad_netlist.netlist_verilog = "this is not verilog";
  try {
    client.predict(bad_netlist);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  PredictRequest bad_cycles = make_request();
  bad_cycles.cycles = 0;
  try {
    client.predict(bad_cycles);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  // Netlists that parse but are not circuits: a combinational loop, a
  // multi-driven net, an empty module and a module with ports but no
  // cells (nothing to encode: no sub-module graph).
  for (const char* text :
       {"module x (a, y);\n  input a;\n  output y;\n  wire n1, n2;\n"
        "  NAND2_X1 u0 (.A(a), .B(n2), .Y(n1));\n"
        "  INV_X1 u1 (.A(n1), .Y(n2));\n"
        "  INV_X1 u2 (.A(n1), .Y(y));\nendmodule\n",
        "module x (a, y);\n  input a;\n  output y;\n"
        "  INV_X1 u0 (.A(a), .Y(y));\n"
        "  INV_X1 u1 (.A(a), .Y(y));\nendmodule\n",
        "module e ();\nendmodule\n",
        "module p (a, y);\n  input a;\n  output y;\nendmodule\n"}) {
    PredictRequest hostile = make_request();
    hostile.netlist_verilog = text;
    try {
      client.predict(hostile);
      FAIL() << "expected ServeError for " << text;
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << e.what();
    }
  }

  // The same connection still works after every rejection...
  client.ping();
  // ...and so does real work.
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

TEST_F(ServeTest, ErrorRepliesQuoteOnlyAPrefixOfHugeInputWords) {
  // Parser errors name the offending word; a hostile upload must not get
  // its own megabyte echoed back in the reply.
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const std::string huge(1u << 20, 'x');
  constexpr std::size_t kShort = 512;

  StreamBeginRequest begin;
  begin.model = "tiny";
  begin.netlist_verilog = *verilog_;
  begin.format = TraceFormat::kVcdText;
  for (const std::string& vcd :
       {"$var wire 1 ! " + huge + " $end",
        "$enddefinitions $end\n#" + huge,
        "$enddefinitions $end\n#" + std::string(1u << 20, '9'),
        "$enddefinitions $end\n#0\n1" + huge,
        "$enddefinitions $end\n" + huge}) {
    try {
      client.predict_stream(begin, vcd);
      ADD_FAILURE() << "expected ServeError";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
      EXPECT_LT(std::strlen(e.what()), kShort) << std::string(e.what(), 80);
    }
  }

  const std::string head = "module m (a, y);\n  input a;\n  output y;\n";
  for (const std::string& text :
       {head + "  " + huge + " u0 (.A(a), .Y(y));\nendmodule\n",
        head + "  INV_X1 " + huge + " (.A(a));\nendmodule\n",
        head + "  INV_X1 u0 (." + huge + "(a), .Y(y));\nendmodule\n",
        head + "  INV_X1 u0 (.A(a), .Y(" + huge + "));\n  INV_X1 u1 (.A(a), .Y(" +
            huge + "));\nendmodule\n",
        head + "  INV_X1 u0 (.A(a) " + huge + ");\nendmodule\n"}) {
    PredictRequest req = make_request();
    req.netlist_verilog = text;
    try {
      client.predict(req);
      ADD_FAILURE() << "expected ServeError";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
      EXPECT_LT(std::strlen(e.what()), kShort) << std::string(e.what(), 80);
    }
  }
  PredictRequest huge_model = make_request("w1", huge);
  try {
    client.predict(huge_model);
    ADD_FAILURE() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownModel);
    EXPECT_LT(std::strlen(e.what()), kShort);
  }
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

TEST_F(ServeTest, MalformedFramesNeverKillTheDaemon) {
  Server server(loopback_config(), make_registry());
  server.start();
  const std::unique_ptr<router::Router> rt = start_router(server);

  // The same hostile volley against the server and the router in front.
  for (const int port : {server.port(), rt->port()}) {
    SCOPED_TRACE(port == rt->port() ? "router" : "server");
    {
      // Garbage bytes where a frame header belongs (bad magic).
      util::Socket raw = util::connect_tcp("127.0.0.1", port);
      const char junk[32] = "XXXXYYYYZZZZ0123456789abcdefghi";
      raw.send_all(junk, sizeof(junk));
      // The daemon answers with an error frame (best effort) and
      // disconnects.
      Frame resp;
      try {
        if (read_frame(raw, resp)) {
          EXPECT_EQ(resp.type, MsgType::kError);
        }
      } catch (const std::exception&) {
        // A clean disconnect is equally acceptable.
      }
    }
    {
      // Valid magic, hostile declared length (1 EiB).
      util::Socket raw = util::connect_tcp("127.0.0.1", port);
      char header[20] = {};
      std::memcpy(header, kFrameMagic, 4);
      const std::uint32_t type = static_cast<std::uint32_t>(MsgType::kPredict);
      const std::uint64_t len = 1ULL << 60;
      std::memcpy(header + 4, &type, 4);
      std::memcpy(header + 8, &len, 8);
      raw.send_all(header, sizeof(header));
      Frame resp;
      try {
        if (read_frame(raw, resp)) {
          ASSERT_EQ(resp.type, MsgType::kError);
          const ErrorResponse err = ErrorResponse::decode(resp.payload);
          EXPECT_EQ(err.code, ErrorCode::kBadRequest);
        }
      } catch (const std::exception&) {
      }
    }
    // Hostile extension lengths: one past the fixed cap (the 1 MiB body it
    // declares is never sent), and one longer than the declared body. Both
    // are rejected from the header alone — the body is never awaited, let
    // alone allocated — with a kBadRequest reply before the drop.
    for (const auto& [body_len, ext_len] :
         {std::pair<std::uint64_t, std::uint32_t>{1u << 20, 1000},
          std::pair<std::uint64_t, std::uint32_t>{8, 64}}) {
      util::Socket raw = util::connect_tcp("127.0.0.1", port);
      raw.set_io_timeout_ms(10000);
      char header[20];
      std::memcpy(header, kFrameMagic, 4);
      const std::uint32_t type = static_cast<std::uint32_t>(MsgType::kPredict);
      std::memcpy(header + 4, &type, 4);
      std::memcpy(header + 8, &body_len, 8);
      std::memcpy(header + 16, &ext_len, 4);
      raw.send_all(header, sizeof(header));
      Frame resp;
      ASSERT_TRUE(read_frame(raw, resp));
      ASSERT_EQ(resp.type, MsgType::kError);
      const ErrorResponse err = ErrorResponse::decode(resp.payload);
      EXPECT_EQ(err.code, ErrorCode::kBadRequest);
      EXPECT_NE(err.message.find("extension length"), std::string::npos)
          << err.message;
    }
    {
      // Truncated frame: declared 100-byte body, send 3, disconnect.
      util::Socket raw = util::connect_tcp("127.0.0.1", port);
      char header[20] = {};
      std::memcpy(header, kFrameMagic, 4);
      const std::uint32_t type = static_cast<std::uint32_t>(MsgType::kPredict);
      const std::uint64_t len = 100;
      std::memcpy(header + 4, &type, 4);
      std::memcpy(header + 8, &len, 8);
      raw.send_all(header, sizeof(header));
      raw.send_all("abc", 3);
      raw.close();
    }
    {
      // Undecodable predict payload (declared length consistent, bytes junk).
      util::Socket raw = util::connect_tcp("127.0.0.1", port);
      write_frame(raw, MsgType::kPredict, "junk payload");
      Frame resp;
      ASSERT_TRUE(read_frame(raw, resp));
      ASSERT_EQ(resp.type, MsgType::kError);
      EXPECT_EQ(ErrorResponse::decode(resp.payload).code,
                ErrorCode::kBadRequest);
    }

    // After all of that, the daemon serves a fresh client flawlessly.
    Client client = Client::connect_tcp("127.0.0.1", port);
    client.ping();
    expect_matches_direct(client.predict(make_request()), *expected_w1_);
  }
  rt->stop();
  server.stop();
}

TEST_F(ServeTest, DeadlineExceededWhileQueued) {
  ServerConfig cfg = loopback_config();
  cfg.dispatch_delay_for_test_ms = 50;  // every batch waits 50ms
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  PredictRequest req = make_request();
  req.deadline_ms = 1;  // expires during the forced dispatch delay
  try {
    client.predict(req);
    FAIL() << "expected deadline error";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }

  // No deadline: the same request succeeds despite the delay.
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

TEST_F(ServeTest, StopDrainsInFlightRequests) {
  ServerConfig cfg = loopback_config();
  cfg.dispatch_delay_for_test_ms = 100;  // hold the request in the queue
  Server server(cfg, make_registry());
  server.start();

  PredictResponse resp;
  std::thread requester([&] {
    Client client = Client::connect_tcp("127.0.0.1", server.port());
    resp = client.predict(make_request());
  });
  // Let the request reach the queue, then stop: the server must answer it
  // before shutting down (graceful drain), not drop it.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.stop();
  requester.join();
  expect_matches_direct(resp, *expected_w1_);
}

TEST_F(ServeTest, ClientShutdownRequestIsHonored) {
  Server server(loopback_config(), make_registry());
  server.start();
  EXPECT_FALSE(server.stop_requested());
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  client.shutdown_server();
  EXPECT_TRUE(server.stop_requested());
  server.wait_for_stop_request();
  server.stop();
  // Stopping a stopped server is a no-op.
  server.stop();
}

TEST_F(ServeTest, UnixDomainSocketServesPredictions) {
  ServerConfig cfg;
  cfg.port = -1;  // TCP disabled
  const TempFile socket_file("atlas_serve_test", ".sock");
  cfg.unix_path = socket_file.path();
  Server server(cfg, make_registry());
  server.start();
  // UDS-only: the TCP port stays at its documented -1 sentinel (and the
  // startup log omits the port kv rather than printing port=-1).
  EXPECT_EQ(server.port(), -1);
  Client client = Client::connect_unix(cfg.unix_path);
  client.ping();
  expect_matches_direct(client.predict(make_request()), *expected_w1_);

  // A UDS-only router in front of the UDS-only server: same sentinel, same
  // bits.
  const TempFile router_socket("atlas_router_test", ".sock");
  router::RouterConfig rcfg;
  rcfg.port = -1;
  rcfg.unix_path = router_socket.path();
  router::Router rt(rcfg, router::parse_backend_list("unix:" + cfg.unix_path));
  rt.start();
  EXPECT_EQ(rt.port(), -1);
  Client via_router = Client::connect_unix(rcfg.unix_path);
  via_router.ping();
  expect_matches_direct(via_router.predict(make_request()), *expected_w1_);
  rt.stop();
  server.stop();
}

TEST_F(ServeTest, DeadlineExceededDuringCompute) {
  ServerConfig cfg = loopback_config();
  cfg.handler_delay_for_test_ms = 60;  // compute takes ~60ms, queue wait ~0
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  obs::Counter& errors = obs::Registry::global().counter(
      "atlas_serve_request_errors_total", "endpoint=\"predict\"");
  const std::uint64_t errors_before = errors.value();

  PredictRequest req = make_request();
  req.deadline_ms = 30;  // survives the queue, expires inside the handler
  try {
    client.predict(req);
    FAIL() << "expected deadline error";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  // The late result counted as an error, not a slow success.
  EXPECT_EQ(errors.value(), errors_before + 1);

  // Without a deadline the same slow request succeeds.
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

// ---- Streamed toggle-trace upload -----------------------------------------

TEST_F(ServeTest, StreamedTraceBitIdenticalToDiskTrace) {
  // Record the query design's w1 workload as VCD text — exactly what
  // `atlas_cli sim` writes to disk.
  netlist::Netlist gate = netlist::parse_verilog(*verilog_, *lib_);
  sim::CycleSimulator simulator(gate);
  sim::StimulusGenerator stimulus(gate, sim::make_w1());
  const sim::ToggleTrace sim_trace = simulator.run(stimulus, kCycles);
  const std::string vcd =
      sim::write_vcd(gate, sim_trace, simulator.clock_net_mask());

  // Reference: the offline path (`atlas_cli predict --vcd`) — same
  // ExternalTrace::resolve the server uses, so equality must be exact.
  const sim::ExternalTrace ext = sim::ExternalTrace::from_vcd_text(vcd);
  const auto graphs = graph::build_submodule_graphs(gate);
  const core::Prediction direct =
      (*model_)->predict(gate, graphs, ext.resolve(gate));

  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  StreamBeginRequest begin;
  begin.model = "tiny";
  begin.netlist_verilog = *verilog_;
  begin.cycles = kCycles;
  begin.want_submodules = true;

  // Tiny chunks so reassembly is genuinely multi-chunk.
  const PredictResponse cold = client.predict_stream(begin, vcd, 512);
  EXPECT_FALSE(cold.embedding_cache_hit());
  expect_matches_direct(cold, direct);

  // Same trace content again: its hash pins the embedding entry, so the
  // warm path skips the VCD parse entirely and still matches exactly.
  const PredictResponse warm = client.predict_stream(begin, vcd, 512);
  EXPECT_TRUE(warm.design_cache_hit());
  EXPECT_TRUE(warm.embedding_cache_hit());
  expect_matches_direct(warm, direct);

  const FeatureCacheStats cache = server.cache_stats();
  EXPECT_EQ(cache.embedding_hits, 1u);
  server.stop();
}

TEST_F(ServeTest, StreamProtocolViolationsAreRejectedCleanly) {
  Server server(loopback_config(), make_registry());
  server.start();

  const auto expect_error = [](util::Socket& raw, ErrorCode want) {
    Frame resp;
    ASSERT_TRUE(read_frame(raw, resp));
    ASSERT_EQ(resp.type, MsgType::kError);
    EXPECT_EQ(ErrorResponse::decode(resp.payload).code, want);
  };
  const auto expect_ack = [](util::Socket& raw) {
    Frame resp;
    ASSERT_TRUE(read_frame(raw, resp));
    ASSERT_EQ(resp.type, MsgType::kStreamAck);
  };
  StreamBeginRequest begin;
  begin.model = "tiny";
  begin.netlist_verilog = *verilog_;
  begin.trace_bytes = 64;

  {
    // Chunk and End with no Begin.
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    StreamChunk chunk;
    chunk.data = "x";
    write_frame(raw, MsgType::kStreamChunk, chunk.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
    write_frame(raw, MsgType::kStreamEnd, StreamEndRequest{}.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
  }
  {
    // Begin while a stream is active discards the partial upload.
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    write_frame(raw, MsgType::kStreamBegin, begin.encode());
    expect_ack(raw);
    write_frame(raw, MsgType::kStreamBegin, begin.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
    // The reset means a follow-up chunk has no stream either.
    StreamChunk chunk;
    chunk.data = "x";
    write_frame(raw, MsgType::kStreamChunk, chunk.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
  }
  {
    // Out-of-order chunk, then bytes beyond the declared size.
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    write_frame(raw, MsgType::kStreamBegin, begin.encode());
    expect_ack(raw);
    StreamChunk chunk;
    chunk.seq = 5;
    chunk.data = "x";
    write_frame(raw, MsgType::kStreamChunk, chunk.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);

    write_frame(raw, MsgType::kStreamBegin, begin.encode());
    expect_ack(raw);
    chunk.seq = 0;
    chunk.data = std::string(100, 'x');  // declared 64
    write_frame(raw, MsgType::kStreamChunk, chunk.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
  }
  {
    // End totals that do not match what was assembled.
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    write_frame(raw, MsgType::kStreamBegin, begin.encode());
    expect_ack(raw);
    StreamChunk chunk;
    chunk.data = std::string(32, 'x');
    write_frame(raw, MsgType::kStreamChunk, chunk.encode());
    expect_ack(raw);
    StreamEndRequest end;
    end.total_chunks = 1;
    end.total_bytes = 64;  // only 32 arrived
    write_frame(raw, MsgType::kStreamEnd, end.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
  }
  {
    // Hostile declared sizes are rejected at Begin, before any chunk.
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    StreamBeginRequest huge = begin;
    huge.trace_bytes = 1ULL << 60;
    write_frame(raw, MsgType::kStreamBegin, huge.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
    StreamBeginRequest empty = begin;
    empty.trace_bytes = 0;
    write_frame(raw, MsgType::kStreamBegin, empty.encode());
    expect_error(raw, ErrorCode::kStreamProtocol);
  }
  {
    // A complete, well-formed stream whose payload is not VCD: rejected at
    // predict time, connection survives.
    Client client = Client::connect_tcp("127.0.0.1", server.port());
    StreamBeginRequest bad = begin;
    try {
      client.predict_stream(bad, "this is not a vcd file");
      FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    }
    client.ping();
  }
  {
    // Abandoned mid-stream upload: its state dies with the connection.
    util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
    write_frame(raw, MsgType::kStreamBegin, begin.encode());
    expect_ack(raw);
    StreamChunk chunk;
    chunk.data = std::string(32, 'x');
    write_frame(raw, MsgType::kStreamChunk, chunk.encode());
    expect_ack(raw);
    raw.close();
  }

  // After all of that the daemon still serves a fresh client.
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

TEST_F(ServeTest, StreamDeadlineCoversAssembly) {
  Server server(loopback_config(), make_registry());
  server.start();
  util::Socket raw = util::connect_tcp("127.0.0.1", server.port());

  StreamBeginRequest begin;
  begin.model = "tiny";
  begin.netlist_verilog = *verilog_;
  begin.trace_bytes = 64;
  begin.deadline_ms = 1;
  write_frame(raw, MsgType::kStreamBegin, begin.encode());
  Frame resp;
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kStreamAck);

  // A slow client: the deadline expires between chunks.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  StreamChunk chunk;
  chunk.data = "x";
  write_frame(raw, MsgType::kStreamChunk, chunk.encode());
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(ErrorResponse::decode(resp.payload).code,
            ErrorCode::kDeadlineExceeded);
  server.stop();
}

// ---- Binary delta streams and design-by-hash --------------------------------

/// The query design's w1 trace in both wire encodings, plus the reference
/// prediction through the one ExternalTrace::resolve path they share.
struct DeltaFixture {
  netlist::Netlist gate;
  std::string vcd;
  std::string delta;
  core::Prediction direct;
};

DeltaFixture make_delta_fixture(const std::string& verilog,
                                const liberty::Library& lib,
                                const core::AtlasModel& model) {
  DeltaFixture f{netlist::parse_verilog(verilog, lib), {}, {}, {}};
  sim::CycleSimulator simulator(f.gate);
  sim::StimulusGenerator stimulus(f.gate, sim::make_w1());
  const sim::ToggleTrace trace = simulator.run(stimulus, kCycles);
  f.vcd = sim::write_vcd(f.gate, trace, simulator.clock_net_mask());
  f.delta = sim::write_delta(f.gate, trace, simulator.clock_net_mask());
  const auto graphs = graph::build_submodule_graphs(f.gate);
  f.direct = model.predict(
      f.gate, graphs,
      sim::ExternalTrace::from_delta_bytes(f.delta).resolve(f.gate));
  return f;
}

StreamBeginRequest make_stream_begin(const std::string& verilog,
                                     TraceFormat format) {
  StreamBeginRequest begin;
  begin.model = "tiny";
  begin.netlist_verilog = verilog;
  begin.cycles = kCycles;
  begin.want_submodules = true;
  begin.format = format;
  return begin;
}

TEST_F(ServeTest, DeltaStreamBitIdenticalToVcdStreamAndDirect) {
  const DeltaFixture f = make_delta_fixture(*verilog_, *lib_, **model_);

  // The acceptance bar for the encoding: on a representative sparse-toggle
  // workload the delta must beat the VCD text by >= 10x on the wire.
  EXPECT_GE(static_cast<double>(f.vcd.size()),
            10.0 * static_cast<double>(f.delta.size()))
      << "vcd=" << f.vcd.size() << "B delta=" << f.delta.size() << "B";

  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  // VCD text stream first: it both checks cross-format identity and primes
  // the design cache for the delta stream.
  const PredictResponse via_vcd = client.predict_stream(
      make_stream_begin(*verilog_, TraceFormat::kVcdText), f.vcd, 512);
  expect_matches_direct(via_vcd, f.direct);

  // Same trace as a delta: same design entry, but the embedding cache keys
  // on the raw bytes' hash, so the first delta upload re-encodes...
  const StreamBeginRequest dbegin =
      make_stream_begin(*verilog_, TraceFormat::kToggleDelta);
  const PredictResponse cold = client.predict_stream(dbegin, f.delta, 512);
  EXPECT_TRUE(cold.design_cache_hit());
  EXPECT_FALSE(cold.embedding_cache_hit());
  expect_matches_direct(cold, f.direct);

  // ...and the repeat skips straight to the heads, still bit-identical.
  const PredictResponse warm = client.predict_stream(dbegin, f.delta, 512);
  EXPECT_TRUE(warm.embedding_cache_hit());
  expect_matches_direct(warm, f.direct);
  server.stop();
}

namespace {

std::string wire_varint(std::uint64_t v) {
  std::string s;
  while (v >= 0x80) {
    s.push_back(static_cast<char>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  s.push_back(static_cast<char>(v));
  return s;
}

/// Hand-built ATDT header for hostile-payload construction.
std::string wire_delta_header(std::uint64_t nets, std::uint64_t cycles,
                              std::uint64_t order) {
  std::string s("ATDT\x01", 5);
  s += wire_varint(nets);
  s += wire_varint(cycles);
  for (int i = 0; i < 8; ++i) {
    s.push_back(static_cast<char>((order >> (8 * i)) & 0xff));
  }
  return s;
}

}  // namespace

TEST_F(ServeTest, MalformedDeltaStreamsRejectedWithoutKillingConnection) {
  const DeltaFixture f = make_delta_fixture(*verilog_, *lib_, **model_);
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const StreamBeginRequest dbegin =
      make_stream_begin(*verilog_, TraceFormat::kToggleDelta);

  // Every hostile payload is a complete, protocol-correct stream whose
  // *bytes* are wrong: the structural walk at StreamEnd must answer
  // kStreamProtocol and the connection must keep serving.
  const auto rejected_at_stream_end = [&](const std::string& bytes) {
    try {
      client.predict_stream(dbegin, bytes);
      FAIL() << "expected ServeError for " << bytes.size() << "-byte payload";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kStreamProtocol);
    }
    client.ping();
  };

  const std::uint64_t nets = f.gate.num_nets();
  const std::uint64_t order = sim::net_order_hash(f.gate);
  // Quiet cycle-0 bitmap for the real net count.
  const std::string base =
      wire_delta_header(nets, kCycles, order) + std::string((nets + 7) / 8, '\0');

  rejected_at_stream_end("ATXX this is not a delta");
  rejected_at_stream_end(std::string("ATDT\x07", 5) + f.delta.substr(5));
  rejected_at_stream_end(f.delta.substr(0, f.delta.size() / 2));  // truncated
  // A varint that never terminates within its 10-byte budget.
  rejected_at_stream_end(std::string("ATDT\x01", 5) + std::string(11, '\x80'));
  // Declared cycle count past the server's allocation cap.
  rejected_at_stream_end(
      wire_delta_header(nets, (1u << 20) + 1, order));
  // Cycle record past the trace's own declared cycle count.
  rejected_at_stream_end(base + wire_varint(kCycles) + '\0' + wire_varint(1) +
                         wire_varint(0) + wire_varint(1));
  // RLE run addressing nets past the declared net count.
  rejected_at_stream_end(base + wire_varint(0) + '\0' + wire_varint(1) +
                         wire_varint(0) + wire_varint(nets + 5));
  // Truncated mid-run: two runs declared, one sent.
  rejected_at_stream_end(base + wire_varint(0) + '\0' + wire_varint(2) +
                         wire_varint(0) + wire_varint(1));
  // Well-formed delta whose cycle count contradicts stream_begin.
  {
    StreamBeginRequest off_by_one = dbegin;
    off_by_one.cycles = kCycles - 1;
    try {
      client.predict_stream(off_by_one, f.delta);
      FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kStreamProtocol);
    }
    client.ping();
  }

  // Structurally valid but bound to a different netlist: passes StreamEnd,
  // rejected at predict time like any unparseable trace.
  {
    std::string wrong_order = f.delta;
    wrong_order[5 + wire_varint(nets).size() + wire_varint(kCycles).size()] ^=
        0x5a;
    try {
      client.predict_stream(dbegin, wrong_order);
      FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    }
    client.ping();
  }
  // Delta bytes mislabeled as VCD text: predict-time parse rejection.
  {
    try {
      client.predict_stream(make_stream_begin(*verilog_, TraceFormat::kVcdText),
                            f.delta);
      FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    }
    client.ping();
  }

  // After the whole corpus the same connection still does real work.
  expect_matches_direct(client.predict_stream(dbegin, f.delta), f.direct);
  server.stop();
}

TEST_F(ServeTest, DesignByHashStreamedPredict) {
  const DeltaFixture f = make_delta_fixture(*verilog_, *lib_, **model_);
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const StreamBeginRequest dbegin =
      make_stream_begin(*verilog_, TraceFormat::kToggleDelta);

  // Cold server: the hash reference is refused at StreamBegin (before any
  // trace bytes move) and the wrapper falls back to a full upload.
  bool used_hash = true;
  const PredictResponse cold =
      client.predict_stream_cached(dbegin, f.delta, 4096, &used_hash);
  EXPECT_FALSE(used_hash);
  expect_matches_direct(cold, f.direct);

  // Warm: the netlist text never crosses the wire, and the answer is
  // bit-identical to the full-upload one.
  const PredictResponse warm =
      client.predict_stream_cached(dbegin, f.delta, 4096, &used_hash);
  EXPECT_TRUE(used_hash);
  EXPECT_TRUE(warm.design_cache_hit());
  EXPECT_TRUE(warm.embedding_cache_hit());
  expect_matches_direct(warm, f.direct);

  // The hash is orthogonal to the trace encoding: a VCD-text stream can
  // reference the same cached design.
  const PredictResponse vcd_by_hash = client.predict_stream_cached(
      make_stream_begin(*verilog_, TraceFormat::kVcdText), f.vcd, 4096,
      &used_hash);
  EXPECT_TRUE(used_hash);
  expect_matches_direct(vcd_by_hash, f.direct);

  // A hash the server has never seen is kUnknownDesign, not a parse error.
  StreamBeginRequest unknown = dbegin;
  unknown.netlist_verilog.clear();
  unknown.design_hash = 0xdeadbeefdeadbeefull;
  try {
    client.predict_stream(unknown, f.delta);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownDesign);
  }

  // Sending both the hash and the text is ambiguous -> kBadRequest.
  StreamBeginRequest both = dbegin;
  both.design_hash = util::fnv1a64(*verilog_);
  try {
    client.predict_stream(both, f.delta);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  // A hash reference against an unknown model is the model error, not a
  // misleading kUnknownDesign.
  StreamBeginRequest bad_model = unknown;
  bad_model.model = "no_such_model";
  bad_model.design_hash = util::fnv1a64(*verilog_);
  try {
    client.predict_stream(bad_model, f.delta);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownModel);
  }

  // The connection survived every rejection.
  client.ping();
  expect_matches_direct(client.predict_stream(dbegin, f.delta), f.direct);
  server.stop();
}

TEST_F(ServeTest, DesignByHashEvictionRaceFallsBackCleanly) {
  // The race the StreamBegin fast-path check cannot rule out: the design is
  // cached when the hash is accepted, and evicted before the predict runs.
  // The server must answer kUnknownDesign (not recompute, not crash) and the
  // client wrapper must recover with a full upload.
  const DeltaFixture f = make_delta_fixture(*verilog_, *lib_, **model_);
  ServerConfig cfg = loopback_config();
  cfg.cache_designs = 1;  // any other design evicts ours
  Server server(cfg, make_registry());
  server.start();

  Client primer = Client::connect_tcp("127.0.0.1", server.port());
  const StreamBeginRequest dbegin =
      make_stream_begin(*verilog_, TraceFormat::kToggleDelta);
  expect_matches_direct(primer.predict_stream(dbegin, f.delta), f.direct);

  // Open a hash-referenced stream by hand: StreamBegin is accepted (the
  // design is cached right now)...
  util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
  StreamBeginRequest by_hash = dbegin;
  by_hash.design_hash = util::fnv1a64(*verilog_);
  by_hash.netlist_verilog.clear();
  by_hash.trace_bytes = f.delta.size();
  write_frame(raw, MsgType::kStreamBegin, by_hash.encode());
  Frame resp;
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kStreamAck);

  // ...then another client's predict on a different design evicts it while
  // the upload is still in flight...
  {
    const std::string other_verilog = netlist::write_verilog(
        designgen::generate_design(designgen::paper_design_spec(3, 0.0025),
                                   *lib_));
    PredictRequest other = make_request();
    other.netlist_verilog = other_verilog;
    Client evictor = Client::connect_tcp("127.0.0.1", server.port());
    evictor.predict(other);
  }

  // ...so the finished stream's predict finds no artifacts to use.
  StreamChunk chunk;
  chunk.seq = 0;
  chunk.data = f.delta;
  write_frame(raw, MsgType::kStreamChunk, chunk.encode());
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kStreamAck);
  StreamEndRequest end;
  end.total_chunks = 1;
  end.total_bytes = f.delta.size();
  write_frame(raw, MsgType::kStreamEnd, end.encode());
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(ErrorResponse::decode(resp.payload).code,
            ErrorCode::kUnknownDesign);

  // The client wrapper sees the same rejection and re-sends the netlist.
  bool used_hash = true;
  const PredictResponse recovered =
      primer.predict_stream_cached(dbegin, f.delta, 4096, &used_hash);
  EXPECT_FALSE(used_hash);
  expect_matches_direct(recovered, f.direct);
  server.stop();
}

TEST_F(ServeTest, ByHashStreamHitsADesignUploadedByPredictUntilEvicted) {
  // A plain predict's admission hash and a stream client's design_hash are
  // the same FNV-1a of the text, so a design uploaded once by predict is
  // reachable by hash. Once evicted, the hash answers kUnknownDesign.
  const DeltaFixture f = make_delta_fixture(*verilog_, *lib_, **model_);
  ServerConfig cfg = loopback_config();
  cfg.cache_designs = 1;  // any other design evicts ours
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  expect_matches_direct(client.predict(make_request()), *expected_w1_);

  StreamBeginRequest by_hash =
      make_stream_begin(*verilog_, TraceFormat::kToggleDelta);
  by_hash.netlist_verilog.clear();
  by_hash.design_hash = util::fnv1a64(*verilog_);
  const PredictResponse warm = client.predict_stream(by_hash, f.delta);
  EXPECT_TRUE(warm.design_cache_hit());
  expect_matches_direct(warm, f.direct);

  PredictRequest other = make_request();
  other.netlist_verilog = netlist::write_verilog(designgen::generate_design(
      designgen::paper_design_spec(3, 0.0025), *lib_));
  client.predict(other);
  try {
    client.predict_stream(by_hash, f.delta);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownDesign);
  }
  server.stop();
}

TEST_F(ServeTest, TextAndByHashUploadsShareOneDesignEntry) {
  // Text uploads are keyed through the server's hash memo, by-hash streams
  // by the client's FNV-1a; both must name the same design entry, in
  // either order.
  const DeltaFixture f = make_delta_fixture(*verilog_, *lib_, **model_);
  {
    SCOPED_TRACE("text stream, then text predict");
    Server server(loopback_config(), make_registry());
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.port());
    const PredictResponse streamed = client.predict_stream(
        make_stream_begin(*verilog_, TraceFormat::kToggleDelta), f.delta);
    EXPECT_FALSE(streamed.design_cache_hit());
    expect_matches_direct(streamed, f.direct);
    const PredictResponse predicted = client.predict(make_request());
    EXPECT_TRUE(predicted.design_cache_hit());
    EXPECT_FALSE(predicted.embedding_cache_hit());
    expect_matches_direct(predicted, *expected_w1_);
    EXPECT_EQ(server.health_snapshot().cache_designs, 1u);
    server.stop();
  }
  {
    SCOPED_TRACE("text predict, then by-hash stream");
    Server server(loopback_config(), make_registry());
    server.start();
    Client client = Client::connect_tcp("127.0.0.1", server.port());
    const PredictResponse predicted = client.predict(make_request());
    EXPECT_FALSE(predicted.design_cache_hit());
    expect_matches_direct(predicted, *expected_w1_);
    StreamBeginRequest by_hash =
        make_stream_begin(*verilog_, TraceFormat::kToggleDelta);
    by_hash.netlist_verilog.clear();
    by_hash.design_hash = util::fnv1a64(*verilog_);
    const PredictResponse streamed = client.predict_stream(by_hash, f.delta);
    EXPECT_TRUE(streamed.design_cache_hit());
    EXPECT_FALSE(streamed.embedding_cache_hit());
    expect_matches_direct(streamed, f.direct);
    EXPECT_EQ(server.health_snapshot().cache_designs, 1u);
    server.stop();
  }
}

TEST_F(ServeTest, ConcurrentTextPredictsOfMoreDesignsThanTheHashMemoHolds) {
  // Four connections upload more distinct netlist texts than the admission
  // hash memo keeps, then upload them all again: by then the oldest texts
  // have left the memo, so their FNV-1a is computed afresh, and every
  // repeat must still find its own design entry.
  const std::string tiny =
      "module t (a, b, y);\n  input a;\n  input b;\n  output y;\n"
      "  wire n1;\n  NAND2_X1 u0 (.A(a), .B(b), .Y(n1));\n"
      "  INV_X1 u1 (.A(n1), .Y(y));\nendmodule\n";
  // Comments do not reach the parsed design: every variant is a distinct
  // design entry with the same prediction.
  const auto variant = [&tiny](std::size_t i) {
    return tiny + "// variant " + std::to_string(i) + "\n";
  };
  // The server's own steps: a netlist without sub-module annotations is
  // partitioned by structure.
  netlist::Netlist gate = netlist::parse_verilog(tiny, *lib_);
  core::assign_submodules_by_structure(gate);
  sim::CycleSimulator simulator(gate);
  sim::StimulusGenerator stimulus(gate, sim::make_w1());
  const core::Prediction expected = (*model_)->predict(
      gate, graph::build_submodule_graphs(gate),
      simulator.run(stimulus, kCycles));

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kDesigns = util::NetlistHashMemo::kCapacity + 100;
  ServerConfig cfg = loopback_config();
  cfg.cache_designs = kDesigns;  // no design eviction: every repeat hits
  cfg.batch_max = 4;
  Server server(cfg, make_registry());
  server.start();

  std::atomic<std::size_t> first_pass_done{0};
  std::vector<std::thread> threads;
  std::vector<int> wrong(kClients, 0);
  std::vector<int> hits(kClients * 2, 0);
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client = Client::connect_tcp("127.0.0.1", server.port());
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = t; i < kDesigns; i += kClients) {
          PredictRequest req = make_request();
          req.netlist_verilog = variant(i);
          const PredictResponse resp = client.predict(req);
          hits[t * 2 + pass] += resp.design_cache_hit() ? 1 : 0;
          if (!same_bits(resp.design, expected.design) ||
              !same_bits(resp.submodule, expected.submodule)) {
            ++wrong[t];
          }
        }
        if (pass == 0) {
          // Every text is admitted once before any is repeated.
          first_pass_done.fetch_add(1);
          while (first_pass_done.load() < kClients) std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t first_hits = 0;
  std::size_t repeat_hits = 0;
  for (std::size_t t = 0; t < kClients; ++t) {
    EXPECT_EQ(wrong[t], 0) << "connection " << t;
    first_hits += static_cast<std::size_t>(hits[t * 2]);
    repeat_hits += static_cast<std::size_t>(hits[t * 2 + 1]);
  }
  EXPECT_EQ(first_hits, 0u);
  EXPECT_EQ(repeat_hits, kDesigns);
  const FeatureCacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.design_misses, kDesigns);
  EXPECT_EQ(stats.design_hits, kDesigns);
  EXPECT_EQ(stats.design_evictions, 0u);
  EXPECT_EQ(server.health_snapshot().cache_designs, kDesigns);
  server.stop();
}

TEST_F(ServeTest, ConcurrentDeltaStreamsAllBitIdentical) {
  // Delta-stream assembly, validation, hash fallback and cache insertion
  // racing across connections (the TSan target for this subsystem): every
  // client must get the bit-identical answer whichever interleaving wins.
  const DeltaFixture f = make_delta_fixture(*verilog_, *lib_, **model_);
  ServerConfig cfg = loopback_config();
  cfg.batch_max = 4;
  Server server(cfg, make_registry());
  server.start();

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::vector<std::vector<PredictResponse>> results(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client = Client::connect_tcp("127.0.0.1", server.port());
      const StreamBeginRequest dbegin =
          make_stream_begin(*verilog_, TraceFormat::kToggleDelta);
      for (int r = 0; r < kRequestsEach; ++r) {
        // Odd requests go through the by-hash wrapper so cold-hash fallback
        // races warm-hash acceptance.
        results[static_cast<std::size_t>(t)].push_back(
            r % 2 == 1 ? client.predict_stream_cached(dbegin, f.delta, 2048)
                       : client.predict_stream(dbegin, f.delta, 2048));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const auto& per_client : results) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kRequestsEach));
    for (const PredictResponse& resp : per_client) {
      expect_matches_direct(resp, f.direct);
    }
  }
  server.stop();
}

TEST_F(ServeTest, StreamBeginFormatAndHashOnTheWire) {
  StreamBeginRequest r;
  r.model = "m";
  r.netlist_verilog = "module m; endmodule";
  r.format = TraceFormat::kToggleDelta;
  r.cycles = 7;
  r.deadline_ms = 9;
  r.want_submodules = true;
  r.trace_bytes = 123;
  r.design_hash = 0x1122334455667788ull;
  const StreamBeginRequest back = StreamBeginRequest::decode(r.encode());
  EXPECT_EQ(back.model, r.model);
  EXPECT_EQ(back.netlist_verilog, r.netlist_verilog);
  EXPECT_EQ(back.format, TraceFormat::kToggleDelta);
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.deadline_ms, r.deadline_ms);
  EXPECT_EQ(back.want_submodules, r.want_submodules);
  EXPECT_EQ(back.trace_bytes, r.trace_bytes);
  EXPECT_EQ(back.design_hash, r.design_hash);

  // An unknown format value is refused by decode itself (kBadRequest on the
  // wire), never smuggled into dispatch as a dangling enum. Locate the
  // format field by differencing two encodings, then patch it.
  StreamBeginRequest v = r;
  v.format = TraceFormat::kVcdText;
  const std::string delta_bytes = r.encode();
  const std::string vcd_bytes = v.encode();
  ASSERT_EQ(delta_bytes.size(), vcd_bytes.size());
  std::size_t off = 0;
  while (off < delta_bytes.size() && delta_bytes[off] == vcd_bytes[off]) ++off;
  ASSERT_LT(off, delta_bytes.size());
  std::string patched = delta_bytes;
  patched[off] = 99;
  EXPECT_THROW(StreamBeginRequest::decode(patched), ProtocolError);
}

// ---- Dynamic model management ---------------------------------------------

TEST_F(ServeTest, AdminRequestsRejectedWithoutAllowAdmin) {
  Server server(loopback_config(), make_registry());  // allow_admin = false
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  try {
    client.load_model("x", "/nonexistent.bin");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdminDisabled);
  }
  try {
    client.unload_model("tiny");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdminDisabled);
  }
  // The gate rejected the requests without touching the registry or the
  // connection.
  ASSERT_EQ(client.models().size(), 1u);
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

TEST_F(ServeTest, AdminLoadUnloadLifecycle) {
  const TempFile model_file("atlas_admin_model", ".bin");
  const TempFile lib_file("atlas_admin_x2", ".lib");
  const std::string& model_path = model_file.path();
  const std::string& lib_path = lib_file.path();
  (*model_)->save(model_path);
  liberty::save_liberty_file(scaled_library(), lib_path);

  ServerConfig cfg = loopback_config();
  cfg.allow_admin = true;
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  client.load_model("second", model_path, lib_path);
  const auto models = client.models();
  ASSERT_EQ(models.size(), 2u);
  ASSERT_EQ(models[0].name, "second");
  EXPECT_EQ(models[0].library, "atlas40lp_x2");
  EXPECT_EQ(models[1].name, "tiny");
  EXPECT_GT(models[0].generation, models[1].generation);

  // The server computes with the artifacts as loaded from disk; the Liberty
  // writer is lossy (%.9g), so the bit-identity reference must use the
  // round-tripped library, not the in-memory original.
  const core::AtlasModel loaded = core::AtlasModel::load(model_path);
  const liberty::Library round_tripped = liberty::load_liberty_file(lib_path);
  const PredictResponse resp = client.predict(make_request("w1", "second"));
  expect_matches_direct(resp, direct_predict_with(loaded, round_tripped, "w1"));

  // Unload: the name disappears and new predicts are rejected.
  client.unload_model("second");
  ASSERT_EQ(client.models().size(), 1u);
  try {
    client.predict(make_request("w1", "second"));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownModel);
  }

  // Unloading a name that was never registered is kUnknownModel, not a
  // connection error.
  try {
    client.unload_model("never_registered");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownModel);
  }

  // A corrupt artifact is kBadRequest; the registry and connection survive.
  const TempFile corrupt_file("atlas_corrupt", ".bin");
  const std::string& corrupt_path = corrupt_file.path();
  {
    std::ofstream corrupt(corrupt_path, std::ios::binary);
    corrupt << "this is not an AtlasModel artifact";
  }
  try {
    client.load_model("broken", corrupt_path);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  ASSERT_EQ(client.models().size(), 1u);
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

TEST_F(ServeTest, AdminLoadRejectsHostileGbdtHeadsAndKeepsServing) {
  // A model artifact whose clock-tree head is hand-written: one split over
  // two leaves with the given fields, the encoder and other heads genuine.
  // Every hostile shape must answer kBadRequest from the admin load while
  // the registry keeps serving the model it had.
  const core::AtlasModel& model = **model_;
  const std::uint64_t width = model.models().f_ct.num_features();
  const auto write_artifact = [&](const std::string& path,
                                  std::uint64_t num_features,
                                  std::int64_t feature, std::int64_t left,
                                  std::int64_t right) {
    std::string bytes;
    util::ByteWriter out(bytes);
    out.header("ATLS", 1);
    model.encoder().save(out);
    out.header("GBDT", 1);
    out.u64(num_features);
    out.f64(0.0);
    out.u64(1);  // trees
    out.u64(3);  // nodes
    const std::int64_t nodes[3][3] = {
        {feature, left, right}, {-1, -1, -1}, {-1, -1, -1}};
    for (const auto& n : nodes) {
      out.i64(n[0]);
      out.f32(0.5f);
      out.i64(n[1]);
      out.i64(n[2]);
      out.f64(1.0);
    }
    model.models().f_comb.save(out);
    model.models().f_reg.save(out);
    std::ofstream(path, std::ios::binary) << bytes;
  };

  ServerConfig cfg = loopback_config();
  cfg.allow_admin = true;
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const TempFile artifact("atlas_hostile_head", ".bin");

  // Control: the hand-written head is well formed, so the writer is right.
  write_artifact(artifact.path(), width, 0, 1, 2);
  client.load_model("control", artifact.path());
  client.unload_model("control");

  struct Hostile {
    const char* what;
    std::uint64_t num_features;
    std::int64_t feature, left, right;
  };
  const std::int64_t w = static_cast<std::int64_t>(width);
  for (const Hostile& h : {Hostile{"child past the tree", width, 0, 1, 99},
                           Hostile{"backward child", width, 0, 1, 0},
                           Hostile{"feature past the row", width, w, 1, 2},
                           Hostile{"head wider than its rows", width + 1000,
                                   w + 500, 1, 2}}) {
    write_artifact(artifact.path(), h.num_features, h.feature, h.left,
                   h.right);
    try {
      client.load_model("hostile", artifact.path());
      FAIL() << "expected ServeError for " << h.what;
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << h.what;
    }
    ASSERT_EQ(client.models().size(), 1u) << h.what;
    expect_matches_direct(client.predict(make_request()), *expected_w1_);
  }
  server.stop();
}

TEST_F(ServeTest, PerModelLibraryKeysDesignCache) {
  // Two models over the same model weights but different Liberty libraries:
  // the same netlist text must occupy two design-cache entries (the library
  // shapes graph features), and each predict must be bit-identical to the
  // direct computation against its own library.
  const auto x2 =
      std::make_shared<const liberty::Library>(scaled_library());
  auto registry = make_registry();
  registry->add("tiny_x2", *model_, x2);

  Server server(loopback_config(), registry);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  const PredictResponse a = client.predict(make_request());
  EXPECT_FALSE(a.design_cache_hit());
  expect_matches_direct(a, *expected_w1_);

  // Same Verilog text, different library hash: a design-cache miss, and a
  // different prediction substrate.
  const PredictResponse b = client.predict(make_request("w1", "tiny_x2"));
  EXPECT_FALSE(b.design_cache_hit());
  expect_matches_direct(b, direct_predict_with(**model_, *x2, "w1"));

  // Both entries stay warm independently.
  EXPECT_TRUE(client.predict(make_request()).design_cache_hit());
  EXPECT_TRUE(
      client.predict(make_request("w1", "tiny_x2")).design_cache_hit());
  EXPECT_EQ(server.cache_stats().design_misses, 2u);
  server.stop();
}

TEST_F(ServeTest, ReloadUnderSameNameInvalidatesEmbeddings) {
  auto registry = make_registry();
  Server server(loopback_config(), registry);
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  const PredictResponse warm = client.predict(make_request());
  EXPECT_TRUE(warm.design_cache_hit());
  EXPECT_TRUE(warm.embedding_cache_hit());

  // Republish the same weights under the same name: the design entry (keyed
  // by netlist + library) survives, but the registry generation bump makes
  // cached embeddings stale — the encoder must re-run against the new entry.
  registry->add("tiny", *model_);
  const PredictResponse reloaded = client.predict(make_request());
  EXPECT_TRUE(reloaded.design_cache_hit());
  EXPECT_FALSE(reloaded.embedding_cache_hit());
  expect_matches_direct(reloaded, *expected_w1_);

  const PredictResponse rewarmed = client.predict(make_request());
  EXPECT_TRUE(rewarmed.embedding_cache_hit());
  server.stop();
}

TEST_F(ServeTest, ProcessJobFaultStillAnswers) {
  // Fault injection throws a non-std exception after the handler computed
  // its reply; the promise must still be fulfilled (an error response, not
  // a hung connection or a torn-down dispatcher).
  ServerConfig cfg = loopback_config();
  cfg.fault_inject_for_test = true;
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  for (int i = 0; i < 2; ++i) {
    try {
      client.predict(make_request());
      FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal);
    }
  }
  client.ping();  // the connection thread survived both faults
  server.stop();
}

TEST_F(ServeTest, ShutdownWakeupIsPromptNotPolled) {
  Server server(loopback_config(), make_registry());
  server.start();
  {
    SCOPED_TRACE("router");
    const std::unique_ptr<router::Router> rt = start_router(server);
    expect_shutdown_wakes_waiter_promptly(*rt);
    // The router's own stop latch: its backends are not shut down.
    EXPECT_FALSE(server.stop_requested());
    rt->stop();
  }
  SCOPED_TRACE("server");
  expect_shutdown_wakes_waiter_promptly(server);
  server.stop();
}

TEST_F(ServeTest, RegistryLifecycleRacesWithInFlightPredicts) {
  const TempFile model_file("atlas_race_model", ".bin");
  const TempFile lib_file("atlas_race_x2", ".lib");
  const std::string& model_path = model_file.path();
  const std::string& lib_path = lib_file.path();
  (*model_)->save(model_path);
  liberty::save_liberty_file(scaled_library(), lib_path);
  const core::AtlasModel hot_model = core::AtlasModel::load(model_path);
  const liberty::Library hot_lib = liberty::load_liberty_file(lib_path);
  const core::Prediction hot_ref =
      direct_predict_with(hot_model, hot_lib, "w1");

  ServerConfig cfg = loopback_config();
  cfg.allow_admin = true;
  cfg.batch_max = 4;
  auto registry = make_registry();
  Server server(cfg, registry);
  server.start();

  // Admin thread churns the registry: "hot" appears, is replaced, vanishes;
  // "tiny" is republished (replace-under-same-name) every cycle.
  constexpr int kChurns = 6;
  std::thread admin([&] {
    Client client = Client::connect_tcp("127.0.0.1", server.port());
    for (int i = 0; i < kChurns; ++i) {
      client.load_model("hot", model_path, lib_path);
      registry->add("tiny", *model_);  // replace in place
      client.load_model("hot", model_path, lib_path);  // replace in place
      client.unload_model("hot");
    }
  });

  // Predict threads race the churn. "tiny" must always answer and always
  // bit-identically; "hot" either answers bit-identically (pinned entry,
  // even if unloaded mid-flight) or is cleanly rejected as unknown.
  constexpr int kThreads = 3;
  constexpr int kIters = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client = Client::connect_tcp("127.0.0.1", server.port());
      for (int i = 0; i < kIters; ++i) {
        const PredictResponse tiny = client.predict(make_request());
        if (!same_bits(tiny.design, expected_w1_->design)) {
          failures[static_cast<std::size_t>(t)] = "tiny prediction diverged";
          return;
        }
        try {
          const PredictResponse hot =
              client.predict(make_request("w1", "hot"));
          if (!same_bits(hot.design, hot_ref.design)) {
            failures[static_cast<std::size_t>(t)] = "hot prediction diverged";
            return;
          }
        } catch (const ServeError& e) {
          if (e.code() != ErrorCode::kUnknownModel) {
            failures[static_cast<std::size_t>(t)] =
                "hot predict failed with unexpected code";
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  admin.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  // The final churn cycle unloaded "hot"; "tiny" survived every replace.
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const auto models = client.models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].name, "tiny");
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

// ---- FeatureCache unit tests ----------------------------------------------

std::shared_ptr<const DesignArtifacts> dummy_design(
    const liberty::Library& lib) {
  designgen::DesignSpec spec;
  spec.target_cells = 200;
  netlist::Netlist nl = designgen::generate_design(spec, lib);
  auto graphs = graph::build_submodule_graphs(nl);
  return std::make_shared<const DesignArtifacts>(
      DesignArtifacts{std::move(nl), std::move(graphs), 0, nullptr});
}

TEST_F(ServeTest, FeatureCacheLruEvictsOldestDesign) {
  FeatureCache cache(/*max_designs=*/2, /*max_predictions_per_design=*/2);
  auto d = dummy_design(*lib_);
  cache.put_design(1, d);
  cache.put_design(2, d);
  EXPECT_NE(cache.find_design(1), nullptr);  // 1 is now most recent
  cache.put_design(3, d);                    // evicts 2
  EXPECT_EQ(cache.find_design(2), nullptr);
  EXPECT_NE(cache.find_design(1), nullptr);
  EXPECT_NE(cache.find_design(3), nullptr);
  EXPECT_EQ(cache.num_designs(), 2u);
  EXPECT_EQ(cache.stats().design_evictions, 1u);
}

/// A Prediction whose size is dominated by `rows` sub-module rows — lets a
/// test dial entry weights apart (32 rows ~ 1 KiB).
std::shared_ptr<const core::Prediction> prediction_of_rows(std::size_t rows) {
  core::Prediction p;
  p.submodule.resize(rows);
  return std::make_shared<const core::Prediction>(std::move(p));
}

TEST_F(ServeTest, FeatureCacheEmbeddingLayerBoundsAndEviction) {
  FeatureCache cache(2, 2);
  auto d = dummy_design(*lib_);
  cache.put_design(1, d);
  auto pred = prediction_of_rows(0);
  cache.put_prediction(1, {"m", "w1", 10}, pred);
  cache.put_prediction(1, {"m", "w2", 10}, pred);
  cache.put_prediction(1, {"m", "w1", 20}, pred);  // evicts {m,w1,10}
  EXPECT_EQ(cache.find_prediction(1, {"m", "w1", 10}), nullptr);
  EXPECT_NE(cache.find_prediction(1, {"m", "w2", 10}), nullptr);
  EXPECT_NE(cache.find_prediction(1, {"m", "w1", 20}), nullptr);
  // Predictions for an unknown design are dropped, not crashed on.
  cache.put_prediction(99, {"m", "w1", 10}, pred);
  EXPECT_EQ(cache.find_prediction(99, {"m", "w1", 10}), nullptr);
}

TEST_F(ServeTest, FeatureCacheByteBudgetEvictsBySize) {
  auto d = dummy_design(*lib_);
  const std::size_t design_cost = approx_design_bytes(*d);
  ASSERT_GT(design_cost, 0u);
  // Count-wise all three designs fit; byte-wise the budget has headroom for
  // the designs plus a small prediction, but not a huge one.
  FeatureCache cache(/*max_designs=*/8, /*max_predictions_per_design=*/8,
                     /*max_bytes=*/3 * design_cost + (2u << 20));
  cache.put_design(1, d);
  cache.put_design(2, d);
  cache.put_design(3, d);
  EXPECT_EQ(cache.num_designs(), 3u);

  // ~1 KiB prediction on design 3: still under budget, nothing evicted.
  cache.put_prediction(3, {"m", "w1", 10}, prediction_of_rows(32));
  EXPECT_EQ(cache.num_designs(), 3u);
  EXPECT_EQ(cache.stats().design_evictions, 0u);

  // ~4 MiB prediction on design 2 blows the budget: cold entries go by LRU
  // order (1 first, then 3), the freshly used design 2 survives even though
  // it alone is over budget — a single huge design must stay servable.
  cache.put_prediction(2, {"m", "w1", 10}, prediction_of_rows(1u << 17));
  EXPECT_EQ(cache.num_designs(), 1u);
  EXPECT_EQ(cache.stats().design_evictions, 2u);
  EXPECT_EQ(cache.find_design(1), nullptr);
  EXPECT_EQ(cache.find_design(3), nullptr);
  EXPECT_NE(cache.find_design(2), nullptr);
  EXPECT_NE(cache.find_prediction(2, {"m", "w1", 10}), nullptr);
  // Evicting design 3 dropped its prediction with it.
  EXPECT_EQ(cache.find_prediction(3, {"m", "w1", 10}), nullptr);
  // The budget still accounts the surviving over-budget entry honestly.
  EXPECT_GT(cache.total_bytes(), 3 * design_cost + (2u << 20));
}

TEST_F(ServeTest, FeatureCacheCountsDroppedEmbeddings) {
  // The eviction race a busy server hits with a tiny cache: a handler looks
  // up design 1, computes its prediction, but by insert time the design
  // entry is gone. The work is discarded — and must be counted, because a
  // climbing drop counter is the signal to size the cache up.
  FeatureCache cache(/*max_designs=*/1, /*max_predictions_per_design=*/8);
  auto d = dummy_design(*lib_);
  cache.put_design(1, d);
  cache.put_design(2, d);  // evicts design 1
  EXPECT_EQ(cache.stats().embedding_drops, 0u);
  cache.put_prediction(1, {"m", "w1", 10}, prediction_of_rows(32));
  EXPECT_EQ(cache.stats().embedding_drops, 1u);
  EXPECT_EQ(cache.find_prediction(1, {"m", "w1", 10}), nullptr);

  // The drop surfaces in both the gauge and the stats text.
  EXPECT_NE(obs::Registry::global().render_prometheus().find(
                "atlas_serve_cache_embedding_drops"),
            std::string::npos);
  ServerStats stats;
  EXPECT_NE(stats.render_text(cache.stats()).find("1 drops"),
            std::string::npos);
}

TEST_F(ServeTest, FeatureCacheInsertReturnsWinningEntry) {
  // Two requests race on the same cold key: both compute, both insert. The
  // first insert wins; the loser must get the winner's pointer back (so it
  // serves exactly what the cache retained), and on the eviction race the
  // caller must get its own computed prediction back instead of nothing.
  FeatureCache cache(/*max_designs=*/2, /*max_predictions_per_design=*/8);
  auto d1 = dummy_design(*lib_);
  auto d2 = dummy_design(*lib_);
  EXPECT_EQ(cache.put_design(1, d1), d1);  // normal insert: caller wins
  EXPECT_EQ(cache.put_design(1, d2), d1);  // racer loses: winner returned
  EXPECT_EQ(cache.find_design(1), d1);

  auto p1 = prediction_of_rows(32);
  auto p2 = prediction_of_rows(32);
  EXPECT_EQ(cache.put_prediction(1, {"m", "w1", 10}, p1), p1);
  const std::size_t bytes_after_first = cache.prediction_bytes();
  EXPECT_EQ(bytes_after_first, approx_prediction_bytes(*p1));
  // Losing racer: existing entry returned, byte accounting unchanged (the
  // duplicate is discarded, not double-counted).
  EXPECT_EQ(cache.put_prediction(1, {"m", "w1", 10}, p2), p1);
  EXPECT_EQ(cache.prediction_bytes(), bytes_after_first);
  EXPECT_EQ(cache.find_prediction(1, {"m", "w1", 10}), p1);

  // Eviction race: the design entry is gone by insert time. The drop is
  // counted, but the caller still gets its computed prediction to serve.
  cache.put_design(2, d2);
  cache.put_design(3, d1);  // evicts design 1 (capacity 2)
  ASSERT_EQ(cache.find_design(1), nullptr);
  auto p3 = prediction_of_rows(32);
  EXPECT_EQ(cache.put_prediction(1, {"m", "w1", 10}, p3), p3);
  EXPECT_EQ(cache.stats().embedding_drops, 1u);
}

TEST_F(ServeTest, LatencyHistogramPercentiles) {
  // The serve-local LatencyHistogram was replaced by obs::Histogram; the
  // stats endpoint's percentile semantics must stay unchanged.
  obs::Histogram h;
  EXPECT_EQ(h.percentile(50), 0u);
  for (int i = 0; i < 90; ++i) h.record(100);   // bucket [64,128)
  for (int i = 0; i < 10; ++i) h.record(10000);  // bucket [8192,16384)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(50), 128u);
  EXPECT_EQ(h.percentile(99), 16384u);
}

TEST_F(ServeTest, MetricsEndpointRoundTrip) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  client.ping();
  expect_matches_direct(client.predict(make_request()), *expected_w1_);

  const std::string metrics = client.metrics_text();
  // Request counters/histograms with endpoint labels.
  EXPECT_NE(metrics.find("# TYPE atlas_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("atlas_serve_requests_total{endpoint=\"ping\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE atlas_serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(
      metrics.find("atlas_serve_request_latency_us_bucket{endpoint=\"predict\""),
      std::string::npos);
  EXPECT_NE(metrics.find("atlas_serve_request_latency_us_count"),
            std::string::npos);
  // Cache gauges (at least one design resident after the predict).
  EXPECT_NE(metrics.find("# TYPE atlas_serve_cache_designs gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("atlas_serve_cache_design_misses"),
            std::string::npos);
  // Thread-pool and pipeline counters ride along on the same registry.
  EXPECT_NE(metrics.find("atlas_parallel_tasks_total"), std::string::npos);
  EXPECT_NE(metrics.find("atlas_sim_runs_total"), std::string::npos);
  server.stop();
}

// ---- PR 8: distributed tracing / fleet observability ----------------------

/// Restores the global tracer to its default-off state no matter how the
/// test exits (the ring is process-global; leaking an enabled tracer would
/// couple unrelated tests).
struct TraceGuard {
  ~TraceGuard() {
    obs::Trace::disable();
    obs::Trace::clear();
  }
};

/// A connected AF_UNIX stream pair: frames written to `first` are read
/// from `second` with no server in between.
std::pair<util::Socket, util::Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  return {util::Socket(fds[0]), util::Socket(fds[1])};
}

/// Writes `wire` to one end of a fresh pair and reads one frame back.
Frame frame_through_pair(const std::string& wire) {
  auto [tx, rx] = socket_pair();
  tx.send_all(wire.data(), wire.size());
  tx.shutdown_both();
  Frame out;
  if (!read_frame(rx, out)) throw std::runtime_error("no frame");
  return out;
}

TEST_F(ServeTest, FrameExtensionRoundTripsBesideAnUntouchedPayload) {
  PredictRequest traced = make_request();
  traced.ext.trace.trace_hi = 0x0123456789abcdefull;
  traced.ext.trace.trace_lo = 0xfedcba9876543210ull;
  traced.ext.trace.span_id = 0xc0ffee;
  traced.ext.trace.sampled = true;
  traced.ext.want_timing = true;
  traced.ext.want_queue_depth = true;

  // The extension is not part of the payload: encode() ignores it.
  const std::string payload = traced.encode();
  EXPECT_EQ(payload, make_request().encode());

  const std::string wire = encode_frame(MsgType::kPredict, payload, traced.ext);
  const Frame rt = frame_through_pair(wire);
  EXPECT_EQ(rt.type, MsgType::kPredict);
  EXPECT_EQ(rt.payload, payload);
  EXPECT_EQ(rt.ext.trace.trace_hi, traced.ext.trace.trace_hi);
  EXPECT_EQ(rt.ext.trace.trace_lo, traced.ext.trace.trace_lo);
  EXPECT_EQ(rt.ext.trace.span_id, traced.ext.trace.span_id);
  EXPECT_TRUE(rt.ext.trace.sampled);
  EXPECT_TRUE(rt.ext.want_timing);
  EXPECT_TRUE(rt.ext.want_queue_depth);
  EXPECT_FALSE(rt.ext.timing.has_value());
  EXPECT_FALSE(rt.ext.load.has_value());
  EXPECT_EQ(PredictRequest::decode(rt.payload).model, "tiny");

  // An empty block is zero bytes: header + payload exactly, ext length 0.
  const std::string bare = encode_frame(MsgType::kPredict, payload);
  ASSERT_EQ(bare.size(), kFrameHeaderBytes + payload.size());
  std::uint32_t ext_len = 1;
  std::memcpy(&ext_len, bare.data() + 16, 4);
  EXPECT_EQ(ext_len, 0u);
  const Frame plain = frame_through_pair(bare);
  EXPECT_EQ(plain.payload, payload);
  EXPECT_FALSE(plain.ext.trace.valid());
  EXPECT_FALSE(plain.ext.want_timing);
  EXPECT_FALSE(plain.ext.want_queue_depth);

  // Unknown presence bits and length mismatches are rejected, not skipped.
  std::string unknown_bit = bare;
  const std::uint32_t four = 4;
  const std::uint64_t body = payload.size() + 4;
  std::memcpy(unknown_bit.data() + 8, &body, 8);
  std::memcpy(unknown_bit.data() + 16, &four, 4);
  const std::uint32_t mask = 1u << 31;
  unknown_bit.append(reinterpret_cast<const char*>(&mask), 4);
  EXPECT_THROW(frame_through_pair(unknown_bit), ProtocolError);
  std::string short_block = wire;
  std::uint64_t wire_body = 0;
  std::memcpy(&wire_body, short_block.data() + 8, 8);
  --wire_body;
  std::memcpy(short_block.data() + 8, &wire_body, 8);
  std::uint32_t wire_ext = 0;
  std::memcpy(&wire_ext, short_block.data() + 16, 4);
  --wire_ext;
  std::memcpy(short_block.data() + 16, &wire_ext, 4);
  short_block.pop_back();
  EXPECT_THROW(frame_through_pair(short_block), ProtocolError);

  // Payload decoders read exactly their own fields: trailing bytes are
  // corruption, not an extension.
  EXPECT_THROW(PredictRequest::decode(payload + "x"), ProtocolError);

  // StreamBegin carries its extension the same way.
  StreamBeginRequest begin;
  begin.model = "tiny";
  begin.cycles = kCycles;
  begin.ext.trace = traced.ext.trace;
  const Frame brt = frame_through_pair(
      encode_frame(MsgType::kStreamBegin, begin.encode(), begin.ext));
  EXPECT_EQ(StreamBeginRequest::decode(brt.payload).model, "tiny");
  EXPECT_EQ(brt.ext.trace.trace_lo, traced.ext.trace.trace_lo);
  EXPECT_EQ(brt.ext.trace.span_id, traced.ext.trace.span_id);
}

TEST_F(ServeTest, ServerTimingRidesTheReplyExtension) {
  PredictResponse resp;
  resp.cache_flags = kCacheHitDesign;
  resp.server_seconds = 0.25;
  resp.num_cycles = 3;
  resp.design = {{1.0, 2.0, 3.0, 0.0}};
  FrameExt ext;
  ServerTiming& t = ext.timing.emplace();
  t.batch_wait_us = 7;
  t.queue_us = 11;
  t.cache_us = 22;
  t.encode_us = 33;
  t.predict_us = 44;
  t.serialize_us = 55;
  t.total_us = 200;

  // The payload is the same bytes with or without timing.
  PredictResponse with_fields = resp;
  with_fields.has_timing = true;
  with_fields.timing = t;
  EXPECT_EQ(with_fields.encode(), resp.encode());
  EXPECT_FALSE(PredictResponse::decode(resp.encode()).has_timing);

  const Frame rt = frame_through_pair(
      encode_frame(MsgType::kPredictOk, resp.encode(), ext));
  EXPECT_EQ(rt.payload, resp.encode());
  ASSERT_TRUE(rt.ext.timing.has_value());
  EXPECT_EQ(rt.ext.timing->batch_wait_us, 7u);
  EXPECT_EQ(rt.ext.timing->queue_us, 11u);
  EXPECT_EQ(rt.ext.timing->cache_us, 22u);
  EXPECT_EQ(rt.ext.timing->encode_us, 33u);
  EXPECT_EQ(rt.ext.timing->predict_us, 44u);
  EXPECT_EQ(rt.ext.timing->serialize_us, 55u);
  EXPECT_EQ(rt.ext.timing->total_us, 200u);
  EXPECT_EQ(PredictResponse::decode(rt.payload).design.size(), 1u);
}

TEST_F(ServeTest, PredictUnderTracingLinksClientAndServerSpans) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  TraceGuard guard;
  obs::Trace::enable();
  obs::Trace::clear();
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();

  // Client and server run in one process here, so both sides' spans land
  // in the same ring — the cross-process linkage (same trace id, server
  // span parented under the client span that sent the request) is directly
  // assertable.
  const auto events = obs::Trace::snapshot();
  auto find = [&](const char* name) -> const obs::TraceEventView* {
    for (const auto& e : events) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  const obs::TraceEventView* client_span = find("predict");
  const obs::TraceEventView* server_span = find("handle_predict");
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(server_span, nullptr);
  EXPECT_EQ(client_span->category, "client");
  EXPECT_EQ(server_span->category, "serve");
  ASSERT_TRUE((client_span->ids.trace_hi | client_span->ids.trace_lo) != 0);
  EXPECT_EQ(server_span->ids.trace_hi, client_span->ids.trace_hi);
  EXPECT_EQ(server_span->ids.trace_lo, client_span->ids.trace_lo);
  EXPECT_EQ(client_span->ids.parent_span_id, 0u);  // root
  EXPECT_EQ(server_span->ids.parent_span_id, client_span->ids.span_id);
}

TEST_F(ServeTest, PredictionsBitIdenticalTracingOnVsOff) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  const PredictResponse off = client.predict(make_request());

  TraceGuard guard;
  obs::Trace::enable();
  obs::Trace::clear();
  const PredictResponse on = client.predict(make_request());
  server.stop();

  EXPECT_TRUE(same_bits(off.design, on.design));
  EXPECT_TRUE(same_bits(off.submodule, on.submodule));
  expect_matches_direct(on, *expected_w1_);
}

TEST_F(ServeTest, WantTimingReturnsPerPhaseBreakdown) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  // Timing is independent of tracing: no tracer enabled here.
  PredictRequest req = make_request();
  req.ext.want_timing = true;
  const PredictResponse resp = client.predict(req);
  ASSERT_TRUE(resp.has_timing);
  EXPECT_GT(resp.timing.total_us, 0u);
  EXPECT_GT(resp.timing.encode_us, 0u);  // cold request: parse + sim + encode
  // Phases are disjoint slices of the total.
  EXPECT_LE(resp.timing.batch_wait_us + resp.timing.queue_us +
                resp.timing.cache_us + resp.timing.encode_us +
                resp.timing.predict_us + resp.timing.serialize_us,
            resp.timing.total_us);

  // A warm hit serves the cached prediction: no heads run.
  const PredictResponse warm = client.predict(req);
  ASSERT_TRUE(warm.has_timing);
  EXPECT_TRUE(warm.embedding_cache_hit());
  EXPECT_EQ(warm.timing.predict_us, 0u);
  EXPECT_EQ(warm.timing.encode_us, 0u);

  // Without the flag the tail is absent.
  EXPECT_FALSE(client.predict(make_request()).has_timing);
  server.stop();
}

TEST_F(ServeTest, TimingPhasesSumToTotalWithBatchWaitSplit) {
  // Regression: batch_wait_us used to be folded into queue_us, so the
  // phases double-counted the pre-dispatch interval and could exceed
  // total_us. The dispatch-delay hook (which runs *after* the batch is
  // formed) must land in queue_us, not batch_wait_us.
  ServerConfig cfg = loopback_config();
  cfg.dispatch_delay_for_test_ms = 20;
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  PredictRequest req = make_request();
  req.ext.want_timing = true;
  const PredictResponse resp = client.predict(req);
  server.stop();

  ASSERT_TRUE(resp.has_timing);
  EXPECT_LE(resp.timing.batch_wait_us + resp.timing.queue_us +
                resp.timing.cache_us + resp.timing.encode_us +
                resp.timing.predict_us + resp.timing.serialize_us,
            resp.timing.total_us);
  // The 20ms dispatch delay is queue time (batch formed, not yet
  // running); batch wait only covers enqueue -> batch formation, which
  // is microseconds on an idle server.
  EXPECT_GE(resp.timing.queue_us, 20'000u);
  EXPECT_LT(resp.timing.batch_wait_us, 20'000u);
}

TEST_F(ServeTest, AdmissionHashIsChargedToCacheTimeNotBatchWait) {
  // The server hashes a request's netlist text on the connection thread as
  // the request is admitted: FNV-1a the first time it sees the text, a
  // keyed SipHash-1-3 that finds the memoized FNV-1a after that. That time
  // derives the design-cache key, so it is cache_us, never batch_wait_us,
  // and the phases still fit inside total_us. A 4 MiB comment makes either
  // hash take milliseconds; the prediction is unchanged by it.
  PredictRequest req = make_request();
  req.netlist_verilog =
      *verilog_ + "\n// " + std::string(std::size_t{4} << 20, 'x') + "\n";
  req.ext.want_timing = true;
  // Fastest of three local runs of `hash` over the text, in microseconds.
  const auto local_us = [&req](auto hash) {
    std::uint64_t best = ~std::uint64_t{0};
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t h = hash(req.netlist_verilog);
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      EXPECT_NE(h, 0u);
      best = std::min(best, static_cast<std::uint64_t>(us));
    }
    return best;
  };
  const std::uint64_t fnv_us = local_us(
      [](const std::string& text) { return util::fnv1a64(text); });
  const std::uint64_t sip_us = local_us([](const std::string& text) {
    return util::siphash13(text.data(), text.size(), 1, 2);
  });

  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  for (const bool warm : {false, true}) {
    const PredictResponse resp = client.predict(req);
    ASSERT_TRUE(resp.has_timing);
    EXPECT_EQ(resp.design_cache_hit(), warm);
    expect_matches_direct(resp, *expected_w1_);
    EXPECT_GE(resp.timing.cache_us, (warm ? sip_us : fnv_us) / 4)
        << "warm=" << warm;
    // Counted in batch wait as well, the hash would push the sum past the
    // total by about cache_us.
    EXPECT_LE(resp.timing.batch_wait_us + resp.timing.queue_us +
                  resp.timing.cache_us + resp.timing.encode_us +
                  resp.timing.predict_us + resp.timing.serialize_us,
              resp.timing.total_us)
        << "warm=" << warm;
  }
  server.stop();
}

TEST_F(ServeTest, RequestsWithoutANetlistAreRejectedAtAdmission) {
  // The design key comes from the netlist text or, for a stream, the
  // client's hash of it; a request with neither names no design.
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  PredictRequest empty = make_request();
  empty.netlist_verilog.clear();
  try {
    client.predict(empty);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  try {
    client.predict_stream(make_stream_begin("", TraceFormat::kToggleDelta),
                          "ATDT");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  server.stop();
}

/// Restores the global pool size no matter how a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_global_threads(0); }
};

TEST_F(ServeTest, FusedBatchingBitIdenticalAcrossBatchSizesAndThreads) {
  // The determinism contract: the batched path produces bit-identical
  // results to a direct AtlasModel::predict at ANY thread count and ANY
  // batch composition, cold or warm cache. Pseudo-random volley sizes
  // straddle batch_max so batches of 1..8 all occur; concurrent identical
  // requests inside one volley also race the cache inserts, exercising the
  // winner-return path end to end.
  const core::Prediction expected_w2 = direct_predict("w2");
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  ThreadCountGuard guard;
  for (const int threads : {1, 3, 8}) {
    util::set_global_threads(threads);
    Server server(loopback_config(), make_registry());
    server.start();
    // Round 0 is a cold cache (fresh server); later rounds are warm.
    for (int round = 0; round < 3; ++round) {
      const std::size_t n = 1 + next() % 12;
      std::vector<std::string> workloads(n);
      for (std::string& w : workloads) w = (next() & 1) ? "w2" : "w1";
      std::vector<PredictResponse> resp(n);
      std::vector<std::thread> senders;
      senders.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        senders.emplace_back([&, i] {
          Client c = Client::connect_tcp("127.0.0.1", server.port());
          resp[i] = c.predict(make_request(workloads[i]));
        });
      }
      for (std::thread& t : senders) t.join();
      for (std::size_t i = 0; i < n; ++i) {
        const core::Prediction& expected =
            workloads[i] == "w2" ? expected_w2 : *expected_w1_;
        ASSERT_EQ(resp[i].design.size(), expected.design.size())
            << "threads=" << threads << " round=" << round << " i=" << i;
        EXPECT_TRUE(same_bits(resp[i].design, expected.design))
            << "threads=" << threads << " round=" << round << " i=" << i
            << " w=" << workloads[i];
        EXPECT_TRUE(same_bits(resp[i].submodule, expected.submodule))
            << "threads=" << threads << " round=" << round << " i=" << i
            << " w=" << workloads[i];
      }
    }
    server.stop();
  }
}

TEST_F(ServeTest, SlowRequestLogEmitsBreakdownAndCountsEveryRequest) {
  ServerConfig cfg = loopback_config();
  cfg.slow_ms = 1;
  cfg.handler_delay_for_test_ms = 5;
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  std::mutex mu;
  std::vector<std::string> lines;
  obs::set_log_sink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  const std::uint64_t before =
      obs::Registry::global().counter("atlas_serve_slow_requests_total")
          .value();
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  obs::set_log_sink(nullptr);
  server.stop();

  // Every slow request counts; the log line is rate-limited (~1/sec) so
  // two back-to-back slow requests yield at least one line, maybe two.
  EXPECT_EQ(obs::Registry::global()
                    .counter("atlas_serve_slow_requests_total")
                    .value() -
                before,
            2u);
  std::lock_guard<std::mutex> lock(mu);
  std::size_t slow_lines = 0;
  for (const std::string& line : lines) {
    if (line.find("event=slow_request") == std::string::npos) continue;
    ++slow_lines;
    EXPECT_NE(line.find("endpoint=predict"), std::string::npos) << line;
    EXPECT_NE(line.find("total_ms="), std::string::npos) << line;
    EXPECT_NE(line.find("queue_us="), std::string::npos) << line;
    EXPECT_NE(line.find("encode_us="), std::string::npos) << line;
    EXPECT_NE(line.find("predict_us="), std::string::npos) << line;
  }
  EXPECT_GE(slow_lines, 1u);
}

TEST_F(ServeTest, TraceDumpIsAdminGated) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  try {
    client.trace_dump_text();
    FAIL() << "trace_dump should require --allow-admin";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdminDisabled);
  }
  server.stop();
}

TEST_F(ServeTest, TraceDumpReturnsChromeJsonAndDrainsTheRing) {
  ServerConfig cfg = loopback_config();
  cfg.allow_admin = true;
  Server server(cfg, make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());

  TraceGuard guard;
  obs::Trace::enable();
  obs::Trace::clear();
  expect_matches_direct(client.predict(make_request()), *expected_w1_);

  const std::string dump = client.trace_dump_text();
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(dump.find("\"handle_predict\""), std::string::npos);

  // Draining is destructive: a second dump no longer holds the span.
  const std::string second = client.trace_dump_text();
  EXPECT_NE(second.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(second.find("\"handle_predict\""), std::string::npos);
  server.stop();
}

TEST_F(ServeTest, StatsJsonSelectorReturnsStructuredSnapshot) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  expect_matches_direct(client.predict(make_request()), *expected_w1_);

  const std::string json = client.stats_text(/*json=*/true);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"endpoints\""), std::string::npos);
  EXPECT_NE(json.find("\"predict\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"design_misses\""), std::string::npos);

  // The default selector still renders the human table.
  EXPECT_NE(client.stats_text().find("cache:"), std::string::npos);
  server.stop();
}

TEST_F(ServeTest, QueueDepthGaugeExportedInMetrics) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  const std::string metrics = client.metrics_text();
  EXPECT_NE(metrics.find("# TYPE atlas_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("atlas_serve_queue_depth "), std::string::npos);
  server.stop();
}

// ---- PR 10: load piggyback + overload shedding ----------------------------

TEST_F(ServeTest, LoadReportRoundTripsInTheExtensionByteExactly) {
  const std::string payload("base-bytes\x01\x02", 12);
  FrameExt ext;
  LoadReport& in = ext.load.emplace();
  in.load = 42;
  in.flags = LoadReport::kFlagWaitDominated;
  const Frame rt = frame_through_pair(
      encode_frame(MsgType::kError, payload, ext));
  EXPECT_EQ(rt.payload, payload) << "the payload must arrive byte-exact";
  ASSERT_TRUE(rt.ext.load.has_value());
  EXPECT_EQ(rt.ext.load->load, 42u);
  EXPECT_TRUE(rt.ext.load->wait_dominated());
  EXPECT_FALSE(rt.ext.timing.has_value());
}

TEST_F(ServeTest, WantQueueDepthAttachesALoadReportOnTheWire) {
  Server server(loopback_config(), make_registry());
  server.start();
  util::Socket raw = util::connect_tcp("127.0.0.1", server.port());

  PredictRequest req = make_request();
  req.ext.want_queue_depth = true;
  write_frame(raw, MsgType::kPredict, req.encode(), req.ext);
  Frame resp;
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kPredictOk);
  ASSERT_TRUE(resp.ext.load.has_value());
  EXPECT_FALSE(resp.ext.timing.has_value());
  // The payload decodes to the same prediction a plain request gets — the
  // bit-identity contract the routing tier relies on.
  expect_matches_direct(PredictResponse::decode(resp.payload), *expected_w1_);

  // A request that did not ask gets an empty extension.
  write_frame(raw, MsgType::kPredict, make_request().encode());
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kPredictOk);
  EXPECT_FALSE(resp.ext.load.has_value());
  server.stop();
}

// An empty Stats/Metrics payload selects the default rendering; a payload
// that is not a string payload is the client's error, answered kBadRequest
// on a connection that stays usable.
TEST_F(ServeTest, UndecodableStatsOrMetricsModeAnswersBadRequest) {
  Server server(loopback_config(), make_registry());
  server.start();
  util::Socket raw = util::connect_tcp("127.0.0.1", server.port());
  Frame resp;
  for (const MsgType type : {MsgType::kStats, MsgType::kMetrics}) {
    write_frame(raw, type, "junk");
    ASSERT_TRUE(read_frame(raw, resp));
    ASSERT_EQ(resp.type, MsgType::kError);
    EXPECT_EQ(ErrorResponse::decode(resp.payload).code, ErrorCode::kBadRequest);
  }
  write_frame(raw, MsgType::kStats, "");
  ASSERT_TRUE(read_frame(raw, resp));
  ASSERT_EQ(resp.type, MsgType::kStatsText);
  EXPECT_NE(decode_string_payload(resp.payload).find("cache:"),
            std::string::npos);
  write_frame(raw, MsgType::kMetrics, encode_string_payload("fleet"));
  ASSERT_TRUE(read_frame(raw, resp));
  EXPECT_EQ(resp.type, MsgType::kMetricsText);
  server.stop();
}

TEST_F(ServeTest, PredictWithLoadReportMatchesPlainPredict) {
  Server server(loopback_config(), make_registry());
  server.start();
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  const PredictResponse plain = client.predict(make_request());
  LoadReport load;
  const PredictResponse with_load = client.predict(make_request(), &load);
  EXPECT_TRUE(same_bits(with_load.design, plain.design));
  EXPECT_TRUE(same_bits(with_load.submodule, plain.submodule));
  EXPECT_EQ(load.load, 0u) << "idle server: nothing else in flight";
  server.stop();
}

TEST_F(ServeTest, ColdPredictsShedPastTheWatermarkWarmAlwaysAdmitted) {
  ServerConfig cfg = loopback_config();
  cfg.shed_queue_depth = 1;
  cfg.dispatch_delay_for_test_ms = 200;  // park admitted jobs observably
  Server server(cfg, make_registry());
  server.start();
  auto wait_for = [&](const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  };
  const std::uint64_t shed_before =
      obs::Registry::global().counter("atlas_serve_shed_total").value();

  // Warm the query design while idle: cold, but depth 0 admits it.
  Client client = Client::connect_tcp("127.0.0.1", server.port());
  expect_matches_direct(client.predict(make_request()), *expected_w1_);

  // Occupy the server with an admitted warm request...
  std::thread occupant([&] {
    try {
      Client oc = Client::connect_tcp("127.0.0.1", server.port());
      oc.predict(make_request());
    } catch (const std::exception& e) {
      ADD_FAILURE() << "occupant: " << e.what();
    }
  });
  ASSERT_TRUE(wait_for([&] { return server.inflight_jobs() >= 1; }));

  // ...now a COLD design (uncached text -> encode-heavy) answers
  // kOverloaded immediately instead of queuing toward a timeout. The shed
  // reply still carries the load tail — wait-dominated by definition — so
  // a routing tier learns the depth from the rejection itself.
  PredictRequest cold = make_request();
  cold.netlist_verilog = *verilog_ + "\n// shed-cold-variant\n";
  LoadReport load;
  Client cold_client = Client::connect_tcp("127.0.0.1", server.port());
  try {
    cold_client.predict(cold, &load);
    FAIL() << "expected kOverloaded";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
  }
  EXPECT_GE(load.load, 1u);
  EXPECT_TRUE(load.wait_dominated());
  EXPECT_GE(obs::Registry::global().counter("atlas_serve_shed_total").value(),
            shed_before + 1);

  // A WARM request during the same overload is admitted (a cache hit costs
  // less than the client's retry would) and answers bit-identically.
  expect_matches_direct(client.predict(make_request()), *expected_w1_);
  occupant.join();

  // Once drained, the cold design is admitted and computes normally.
  ASSERT_TRUE(wait_for([&] { return server.inflight_jobs() == 0; }));
  expect_matches_direct(cold_client.predict(cold), *expected_w1_);
  server.stop();
}

}  // namespace
}  // namespace atlas::serve
