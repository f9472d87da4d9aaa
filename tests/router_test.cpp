// Tests for the atlas_router sharding tier: hash-ring placement properties
// (balance, minimal movement, determinism), backend pool liveness, and
// end-to-end 2-backend topologies — sharded cache warmth, bit-identity with
// a direct atlas_serve, mid-workload backend death with failover (predict
// and mid-stream), admin fan-out, and the router's metrics surface.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include <unistd.h>

// TSan's ~10x slowdown serializes concurrent volleys, so assertions about
// load-balance *quality* (not correctness) are skipped under it.
#if defined(__SANITIZE_THREAD__)
#define ATLAS_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ATLAS_TSAN_ACTIVE 1
#endif
#endif
#ifndef ATLAS_TSAN_ACTIVE
#define ATLAS_TSAN_ACTIVE 0
#endif

#include "atlas/finetune.h"
#include "atlas/model.h"
#include "atlas/preprocess.h"
#include "atlas/pretrain.h"
#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "liberty/liberty_io.h"
#include "netlist/verilog_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/backend_pool.h"
#include "router/hot_keys.h"
#include "router/fleet_obs.h"
#include "router/hash_ring.h"
#include "router/router.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/external_trace.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "sim/vcd.h"
#include "util/hash.h"
#include "util/socket.h"

#include "json_reader.h"

namespace atlas::router {
namespace {

using serve::Client;
using serve::ErrorCode;
using serve::HealthResponse;
using serve::PredictRequest;
using serve::PredictResponse;
using serve::ServeError;

// ---- Hash ring properties -------------------------------------------------

std::vector<std::string> make_backend_ids(std::size_t n) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back("10.0.0." + std::to_string(i + 1) + ":7433");
  }
  return ids;
}

TEST(HashRing, DistributionIsBalancedAcrossVirtualNodes) {
  constexpr std::size_t kBackends = 8;
  constexpr std::size_t kKeys = 20000;
  HashRing ring(64);
  for (const std::string& id : make_backend_ids(kBackends)) ring.add(id);

  std::map<std::string, std::size_t> load;
  for (std::size_t k = 0; k < kKeys; ++k) {
    load[ring.lookup(util::hash_mix(0x9e3779b97f4a7c15ull, k))]++;
  }
  ASSERT_EQ(load.size(), kBackends) << "some backend owns no keys";
  const double mean = static_cast<double>(kKeys) / kBackends;
  for (const auto& [id, n] : load) {
    // 64 vnodes keeps the spread well inside 2x of fair share; a ring bug
    // (bad mixing, vnode collisions) blows far past this.
    EXPECT_GT(static_cast<double>(n), 0.45 * mean) << id;
    EXPECT_LT(static_cast<double>(n), 1.8 * mean) << id;
  }
}

TEST(HashRing, RemovalMovesOnlyTheRemovedBackendsKeys) {
  constexpr std::size_t kBackends = 6;
  constexpr std::size_t kKeys = 10000;
  const std::vector<std::string> ids = make_backend_ids(kBackends);
  HashRing ring(64);
  for (const std::string& id : ids) ring.add(id);

  std::vector<std::uint64_t> keys;
  std::vector<std::string> before;
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back(util::hash_mix(0x517cc1b727220a95ull, k));
    before.push_back(ring.lookup(keys.back()));
  }

  const std::string& victim = ids[2];
  ASSERT_TRUE(ring.remove(victim));
  std::size_t moved = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::string after = ring.lookup(keys[k]);
    if (before[k] == victim) {
      EXPECT_NE(after, victim);
      ++moved;
    } else {
      // The consistent-hashing contract: keys not owned by the removed
      // backend do not move at all.
      EXPECT_EQ(after, before[k]) << "key " << k << " moved gratuitously";
    }
  }
  // The victim owned roughly 1/6 of the keyspace; all of it (and only it)
  // was reassigned.
  EXPECT_GT(moved, kKeys / 12);
  EXPECT_LT(moved, kKeys / 3);

  // Re-adding restores the original placement exactly (pure content
  // hashing: membership determines placement, history does not).
  ring.add(victim);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(ring.lookup(keys[k]), before[k]);
  }
}

TEST(HashRing, PlacementIsDeterministicAcrossInstancesAndInsertionOrder) {
  const std::vector<std::string> ids = make_backend_ids(5);
  HashRing forward(64);
  for (auto it = ids.begin(); it != ids.end(); ++it) forward.add(*it);
  HashRing reverse(64);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) reverse.add(*it);
  // A third instance that saw churn before converging on the same members —
  // the "router restart mid-outage" case.
  HashRing churned(64);
  for (const std::string& id : ids) churned.add(id);
  churned.remove(ids[0]);
  churned.remove(ids[3]);
  churned.add(ids[3]);
  churned.add(ids[0]);

  for (std::size_t k = 0; k < 5000; ++k) {
    const std::uint64_t key = util::hash_mix(0x2545f4914f6cdd1dull, k);
    const std::string owner = forward.lookup(key);
    EXPECT_EQ(reverse.lookup(key), owner);
    EXPECT_EQ(churned.lookup(key), owner);
  }
}

TEST(HashRing, PreferenceChainIsTheFailoverOrder) {
  const std::vector<std::string> ids = make_backend_ids(4);
  HashRing ring(64);
  for (const std::string& id : ids) ring.add(id);

  for (std::size_t k = 0; k < 500; ++k) {
    const std::uint64_t key = util::hash_mix(0xd6e8feb86659fd93ull, k);
    const std::vector<std::string> chain = ring.preference(key, ids.size());
    ASSERT_EQ(chain.size(), ids.size());
    EXPECT_EQ(chain[0], ring.lookup(key));
    EXPECT_EQ(std::set<std::string>(chain.begin(), chain.end()).size(),
              chain.size())
        << "preference chain has duplicates";
    // The first successor is exactly where the key re-homes after the owner
    // leaves — a failed-over request warms the shard that keeps the key.
    HashRing without = ring;
    without.remove(chain[0]);
    EXPECT_EQ(without.lookup(key), chain[1]);
  }
}

TEST(HashRing, EmptyAndSingleMemberEdges) {
  HashRing ring(8);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.lookup(42), "");
  EXPECT_TRUE(ring.preference(42, 3).empty());
  EXPECT_FALSE(ring.remove("ghost"));

  ring.add("only:1");
  ring.add("only:1");  // idempotent
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.lookup(0), "only:1");
  EXPECT_EQ(ring.lookup(~0ull), "only:1");
  EXPECT_EQ(ring.preference(7, 5), std::vector<std::string>{"only:1"});
}

// ---- Backend spec parsing -------------------------------------------------

TEST(BackendSpec, ParsesTcpAndUnixForms) {
  const BackendAddress tcp = parse_backend("127.0.0.1:7433");
  EXPECT_FALSE(tcp.is_unix());
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7433);
  EXPECT_EQ(tcp.id, "127.0.0.1:7433");

  const BackendAddress uds = parse_backend("unix:/tmp/a.sock");
  EXPECT_TRUE(uds.is_unix());
  EXPECT_EQ(uds.unix_path, "/tmp/a.sock");
  EXPECT_EQ(uds.id, "unix:/tmp/a.sock");

  const auto list = parse_backend_list("127.0.0.1:1,unix:/tmp/b.sock, ");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].id, "127.0.0.1:1");
  EXPECT_EQ(list[1].id, "unix:/tmp/b.sock");
}

TEST(BackendSpec, RejectsMalformedAndDuplicateSpecs) {
  EXPECT_THROW(parse_backend("no-port"), std::runtime_error);
  EXPECT_THROW(parse_backend("host:"), std::runtime_error);
  EXPECT_THROW(parse_backend(":7433"), std::runtime_error);
  EXPECT_THROW(parse_backend("host:notaport"), std::runtime_error);
  EXPECT_THROW(parse_backend("host:70000"), std::runtime_error);
  EXPECT_THROW(parse_backend("host:-1"), std::runtime_error);
  EXPECT_THROW(parse_backend("unix:"), std::runtime_error);
  EXPECT_THROW(parse_backend_list(""), std::runtime_error);
  EXPECT_THROW(parse_backend_list("a:1,a:1"), std::runtime_error);
}

TEST(BackendPoolTest, UnreachableBackendNeverJoinsTheRing) {
  // Port 1 on loopback: nothing listens there, connects fail fast.
  ProbeConfig probe;
  probe.interval_ms = 50;
  probe.timeout_ms = 200;
  BackendPool pool({parse_backend("127.0.0.1:1")}, probe);
  pool.start();
  EXPECT_EQ(pool.ring_size(), 0u);
  EXPECT_TRUE(pool.route(123).empty());
  const auto statuses = pool.snapshot();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, BackendState::kDown);
  EXPECT_FALSE(statuses[0].in_ring);
  EXPECT_GE(statuses[0].probes_failed, 1u);
  pool.stop();
}

TEST(RouterLifecycle, BindFailureLeavesNoProberRunning) {
  // Occupy a loopback port so the router's bind has to fail.
  int busy_port = 0;
  util::Listener occupant = util::Listener::tcp("127.0.0.1", busy_port);
  RouterConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = busy_port;
  cfg.probe.interval_ms = 20;
  cfg.probe.timeout_ms = 200;
  // Nothing listens on port 1, so any probe that runs fails fast and counts.
  Router router(cfg, {parse_backend("127.0.0.1:1")});
  EXPECT_THROW(router.start(), util::SocketError);

  const auto probes = [&router] {
    const BackendStatus s = router.pool().snapshot().at(0);
    return s.probes_ok + s.probes_failed;
  };
  const std::uint64_t after_start = probes();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // 10 ticks
  // The failed start left no prober behind to keep probing the fleet.
  EXPECT_EQ(probes(), after_start);
  router.stop();  // nothing was started: a no-op
}

// ---- End-to-end 2-backend topologies --------------------------------------

constexpr int kCycles = 20;

/// Expensive shared state (mirrors ServeTest): one tiny trained model, a
/// query design, and its direct (serverless) w1 prediction.
class RouterTest : public ::testing::Test {
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

    const netlist::Netlist query = designgen::generate_design(
        designgen::paper_design_spec(2, 0.0025), *lib_);
    verilog_ = new std::string(netlist::write_verilog(query));
    expected_w1_ = new core::Prediction(direct_predict(*verilog_));
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

  static core::Prediction direct_predict(const std::string& verilog) {
    netlist::Netlist gate = netlist::parse_verilog(verilog, *lib_);
    const auto graphs = graph::build_submodule_graphs(gate);
    sim::CycleSimulator simulator(gate);
    sim::StimulusGenerator stimulus(gate, sim::make_w1());
    const sim::ToggleTrace trace = simulator.run(stimulus, kCycles);
    return (*model_)->predict(gate, graphs, trace);
  }

  /// Distinct netlist *text* (distinct content hash, so distinct placement
  /// and cache identity) that parses to the identical design — comments are
  /// stripped — so every variant's prediction is bit-identical to
  /// expected_w1_. This is how the sharding tests get N designs without
  /// training N references.
  static std::string design_variant(int i) {
    return *verilog_ + "\n// shard-variant " + std::to_string(i) + "\n";
  }

  static std::shared_ptr<serve::ModelRegistry> make_registry() {
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add("tiny", *model_);
    return registry;
  }

  static PredictRequest make_request(const std::string& verilog) {
    PredictRequest req;
    req.model = "tiny";
    req.netlist_verilog = verilog;
    req.workload = "w1";
    req.cycles = kCycles;
    req.want_submodules = true;
    return req;
  }

  static void expect_matches(const PredictResponse& resp,
                             const core::Prediction& expected) {
    ASSERT_EQ(resp.num_cycles, expected.num_cycles);
    ASSERT_EQ(resp.design.size(), expected.design.size());
    for (std::size_t c = 0; c < expected.design.size(); ++c) {
      // Bit-identical: routing through the tier must not perturb a single
      // bit relative to a direct atlas_serve (it relays raw frames).
      EXPECT_EQ(resp.design[c].comb, expected.design[c].comb) << "cycle " << c;
      EXPECT_EQ(resp.design[c].reg, expected.design[c].reg) << "cycle " << c;
      EXPECT_EQ(resp.design[c].clock, expected.design[c].clock)
          << "cycle " << c;
    }
  }

  /// Two in-process backends plus a router in front, all on ephemeral
  /// loopback ports, probing fast enough that membership tests stay quick.
  struct Fleet {
    std::unique_ptr<serve::Server> a;
    std::unique_ptr<serve::Server> b;
    std::unique_ptr<Router> router;
    std::string id_a;
    std::string id_b;

    Fleet() = default;
    Fleet(Fleet&&) = default;
    Fleet& operator=(Fleet&&) = default;

    ~Fleet() {
      if (router) router->stop();
      if (a) a->stop();
      if (b) b->stop();
    }
  };

  static std::unique_ptr<serve::Server> start_backend(bool allow_admin) {
    serve::ServerConfig cfg;
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    cfg.allow_admin = allow_admin;
    auto server = std::make_unique<serve::Server>(cfg, make_registry());
    server->start();
    return server;
  }

  static Fleet start_fleet(bool allow_admin = false) {
    Fleet fleet;
    fleet.a = start_backend(allow_admin);
    fleet.b = start_backend(allow_admin);
    fleet.id_a = "127.0.0.1:" + std::to_string(fleet.a->port());
    fleet.id_b = "127.0.0.1:" + std::to_string(fleet.b->port());

    RouterConfig cfg;
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    cfg.probe.interval_ms = 100;
    cfg.probe.timeout_ms = 1000;
    cfg.probe.fail_threshold = 2;
    cfg.allow_admin = allow_admin;
    fleet.router = std::make_unique<Router>(
        cfg, parse_backend_list(fleet.id_a + "," + fleet.id_b));
    fleet.router->start();
    return fleet;
  }

  static Client connect(const Fleet& fleet) {
    return Client::connect_tcp("127.0.0.1", fleet.router->port());
  }

  /// The shard the router must route `verilog` to: the same ring the
  /// BackendPool builds (same vnode default), keyed exactly as the router
  /// keys placements.
  static std::string expected_owner(const Fleet& fleet,
                                    const std::string& verilog) {
    HashRing ring(ProbeConfig{}.vnodes);
    ring.add(fleet.id_a);
    ring.add(fleet.id_b);
    return ring.lookup(util::hash_mix(util::fnv1a64(verilog),
                                      liberty::content_hash(*lib_)));
  }

  static bool wait_for(const std::function<bool()>& pred, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return pred();
  }

  static liberty::Library* lib_;
  static std::shared_ptr<const core::AtlasModel>* model_;
  static std::string* verilog_;
  static core::Prediction* expected_w1_;
};

liberty::Library* RouterTest::lib_ = nullptr;
std::shared_ptr<const core::AtlasModel>* RouterTest::model_ = nullptr;
std::string* RouterTest::verilog_ = nullptr;
core::Prediction* RouterTest::expected_w1_ = nullptr;

TEST_F(RouterTest, ShardsDesignsAcrossBackendsBitIdentically) {
  Fleet fleet = start_fleet();
  Client client = connect(fleet);
  ASSERT_EQ(fleet.router->pool().ring_size(), 2u);

  constexpr int kDesigns = 8;
  std::map<std::string, std::uint64_t> expected_per_shard;
  for (int i = 0; i < kDesigns; ++i) {
    const std::string verilog = design_variant(i);
    expected_per_shard[expected_owner(fleet, verilog)]++;
    const PredictResponse cold = client.predict(make_request(verilog));
    EXPECT_FALSE(cold.design_cache_hit()) << "design " << i;
    expect_matches(cold, *expected_w1_);
  }
  // Second pass: every repeat hits the same shard's warm cache — the
  // sharded-warmth contract (round-robin or re-keyed routing would miss).
  for (int i = 0; i < kDesigns; ++i) {
    const PredictResponse warm =
        client.predict(make_request(design_variant(i)));
    EXPECT_TRUE(warm.design_cache_hit()) << "design " << i;
    EXPECT_TRUE(warm.embedding_cache_hit()) << "design " << i;
    expect_matches(warm, *expected_w1_);
  }

  // Per-shard occupancy matches the ring's placement exactly, and the
  // fleet holds each design exactly once (disjoint caches, no duplication).
  const HealthResponse ha = fleet.a->health_snapshot();
  const HealthResponse hb = fleet.b->health_snapshot();
  EXPECT_EQ(ha.cache_designs, expected_per_shard[fleet.id_a]);
  EXPECT_EQ(hb.cache_designs, expected_per_shard[fleet.id_b]);
  EXPECT_EQ(ha.cache_designs + hb.cache_designs,
            static_cast<std::uint64_t>(kDesigns));

  // The router's aggregated health sees the union of both caches.
  const HealthResponse agg = client.health();
  EXPECT_EQ(agg.cache_designs, static_cast<std::uint64_t>(kDesigns));
  EXPECT_EQ(agg.num_models, 1u);
  EXPECT_FALSE(agg.draining);
}

TEST_F(RouterTest, FailsOverWhenABackendDiesMidWorkloadAndRebalancesOnJoin) {
  Fleet fleet = start_fleet();
  Client client = connect(fleet);

  const std::string verilog = design_variant(100);
  const std::string owner = expected_owner(fleet, verilog);
  serve::Server& owner_server =
      owner == fleet.id_a ? *fleet.a : *fleet.b;
  serve::Server& survivor_server =
      owner == fleet.id_a ? *fleet.b : *fleet.a;
  const int owner_port = owner_server.port();

  // Warm the owner, then kill it mid-workload.
  expect_matches(client.predict(make_request(verilog)), *expected_w1_);
  EXPECT_EQ(owner_server.health_snapshot().cache_designs, 1u);
  owner_server.stop();

  // Same connection, same design: the router fails over to the ring
  // successor transparently — cold there, but bit-identical.
  const PredictResponse failed_over = client.predict(make_request(verilog));
  EXPECT_FALSE(failed_over.design_cache_hit());
  expect_matches(failed_over, *expected_w1_);
  EXPECT_EQ(fleet.router->pool().ring_size(), 1u);
  EXPECT_EQ(survivor_server.health_snapshot().cache_designs, 1u);

  // And the repeat is warm on the survivor (the key's new steady-state
  // home, by the minimal-movement property).
  EXPECT_TRUE(client.predict(make_request(verilog)).design_cache_hit());

  // The failover left a per-backend trail in the router's metrics.
  const std::string metrics = client.metrics_text();
  EXPECT_NE(metrics.find("atlas_router_failovers_total"), std::string::npos);
  EXPECT_NE(metrics.find("atlas_router_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("atlas_router_ring_backends"), std::string::npos);

  // A backend coming back on the same endpoint rejoins via the prober and
  // the ring rebalances to both shards.
  serve::ServerConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = owner_port;
  serve::Server reborn(cfg, make_registry());
  reborn.start();
  EXPECT_TRUE(wait_for(
      [&] { return fleet.router->pool().ring_size() == 2; }, 5000))
      << "prober never re-added the restarted backend";
  reborn.stop();
}

TEST_F(RouterTest, TextPredictAndByHashStreamOfOneDesignLandOnOneShard) {
  // The router places a text upload by the FNV-1a it memoizes and a
  // by-hash stream by the client's FNV-1a: both keys must pick the shard
  // that holds the design, or the by-hash stream answers kUnknownDesign.
  netlist::Netlist gate = netlist::parse_verilog(*verilog_, *lib_);
  sim::CycleSimulator simulator(gate);
  sim::StimulusGenerator stimulus(gate, sim::make_w1());
  const std::string vcd = sim::write_vcd(gate, simulator.run(stimulus, kCycles),
                                         simulator.clock_net_mask());
  const core::Prediction direct = (*model_)->predict(
      gate, graph::build_submodule_graphs(gate),
      sim::ExternalTrace::from_vcd_text(vcd).resolve(gate));

  Fleet fleet = start_fleet();
  Client client = connect(fleet);
  constexpr int kDesigns = 6;
  std::map<std::string, std::uint64_t> expected_per_shard;
  for (int i = 0; i < kDesigns; ++i) {
    const std::string verilog = design_variant(300 + i);
    expected_per_shard[expected_owner(fleet, verilog)]++;
    const PredictResponse text = client.predict(make_request(verilog));
    EXPECT_FALSE(text.design_cache_hit()) << "design " << i;
    expect_matches(text, *expected_w1_);

    serve::StreamBeginRequest by_hash;
    by_hash.model = "tiny";
    by_hash.design_hash = util::fnv1a64(verilog);
    by_hash.cycles = kCycles;
    by_hash.want_submodules = true;
    const PredictResponse streamed = client.predict_stream(by_hash, vcd, 512);
    EXPECT_TRUE(streamed.design_cache_hit()) << "design " << i;
    expect_matches(streamed, direct);

    // The repeat is placed through the router's memo: the same shard, warm.
    const PredictResponse again = client.predict(make_request(verilog));
    EXPECT_TRUE(again.embedding_cache_hit()) << "design " << i;
    expect_matches(again, *expected_w1_);
  }
  // Each design is held once, by its ring owner.
  EXPECT_EQ(fleet.a->health_snapshot().cache_designs,
            expected_per_shard[fleet.id_a]);
  EXPECT_EQ(fleet.b->health_snapshot().cache_designs,
            expected_per_shard[fleet.id_b]);
}

TEST_F(RouterTest, StreamsArePinnedAndSurviveMidStreamBackendDeath) {
  // Record the query design's w1 trace as VCD text and compute the direct
  // streamed reference (same path serve_test pins).
  netlist::Netlist gate = netlist::parse_verilog(*verilog_, *lib_);
  sim::CycleSimulator simulator(gate);
  sim::StimulusGenerator stimulus(gate, sim::make_w1());
  const sim::ToggleTrace sim_trace = simulator.run(stimulus, kCycles);
  const std::string vcd =
      sim::write_vcd(gate, sim_trace, simulator.clock_net_mask());
  const sim::ExternalTrace ext = sim::ExternalTrace::from_vcd_text(vcd);
  const auto graphs = graph::build_submodule_graphs(gate);
  const core::Prediction direct =
      (*model_)->predict(gate, graphs, ext.resolve(gate));

  Fleet fleet = start_fleet();

  // Whole-stream relay through the router is bit-identical, and the upload
  // landed on the ring owner only.
  {
    Client client = connect(fleet);
    serve::StreamBeginRequest begin;
    begin.model = "tiny";
    begin.netlist_verilog = *verilog_;
    begin.cycles = kCycles;
    const PredictResponse resp = client.predict_stream(begin, vcd, 512);
    expect_matches(resp, direct);
    const std::string owner = expected_owner(fleet, *verilog_);
    const serve::Server& owner_server =
        owner == fleet.id_a ? *fleet.a : *fleet.b;
    const serve::Server& other_server =
        owner == fleet.id_a ? *fleet.b : *fleet.a;
    EXPECT_EQ(owner_server.health_snapshot().cache_designs, 1u);
    EXPECT_EQ(other_server.health_snapshot().cache_designs, 0u);

    // Design-by-hash through the router: first call falls back (relayed
    // kUnknownDesign is part of the client protocol)... except the full
    // upload above already warmed the owner, so the hash path hits.
    bool used_hash = false;
    const PredictResponse by_hash =
        client.predict_stream_cached(begin, vcd, 512, &used_hash);
    EXPECT_TRUE(used_hash);
    expect_matches(by_hash, direct);
  }

  // Mid-stream kill: drive the stream frame-by-frame on a raw socket, stop
  // the pinned backend after the first chunk, and expect the router to
  // replay the buffered prefix onto the survivor and finish the stream.
  {
    const std::string verilog = design_variant(200);
    const std::string owner = expected_owner(fleet, verilog);
    serve::Server& owner_server = owner == fleet.id_a ? *fleet.a : *fleet.b;

    util::Socket raw =
        util::connect_tcp("127.0.0.1", fleet.router->port());
    serve::StreamBeginRequest begin;
    begin.model = "tiny";
    begin.netlist_verilog = verilog;
    begin.cycles = kCycles;
    begin.trace_bytes = vcd.size();
    serve::write_frame(raw, serve::MsgType::kStreamBegin, begin.encode());
    serve::Frame resp;
    ASSERT_TRUE(serve::read_frame(raw, resp));
    ASSERT_EQ(resp.type, serve::MsgType::kStreamAck);

    const std::size_t kChunk = 512;
    std::uint64_t seq = 0;
    std::size_t off = 0;
    // First chunk lands on the owner...
    serve::StreamChunk chunk;
    chunk.seq = seq++;
    chunk.data = vcd.substr(off, kChunk);
    off += chunk.data.size();
    serve::write_frame(raw, serve::MsgType::kStreamChunk, chunk.encode());
    ASSERT_TRUE(serve::read_frame(raw, resp));
    ASSERT_EQ(resp.type, serve::MsgType::kStreamAck);

    // ...which dies mid-upload.
    owner_server.stop();

    // The remaining chunks must keep streaming: the router replays the
    // acked prefix onto the ring successor and continues there.
    while (off < vcd.size()) {
      chunk.seq = seq++;
      chunk.data = vcd.substr(off, kChunk);
      off += chunk.data.size();
      serve::write_frame(raw, serve::MsgType::kStreamChunk, chunk.encode());
      ASSERT_TRUE(serve::read_frame(raw, resp));
      ASSERT_EQ(resp.type, serve::MsgType::kStreamAck)
          << serve::ErrorResponse::decode(resp.payload).message;
    }
    serve::StreamEndRequest end;
    end.total_chunks = seq;
    end.total_bytes = vcd.size();
    serve::write_frame(raw, serve::MsgType::kStreamEnd, end.encode());
    ASSERT_TRUE(serve::read_frame(raw, resp));
    ASSERT_EQ(resp.type, serve::MsgType::kPredictOk)
        << serve::ErrorResponse::decode(resp.payload).message;
    expect_matches(serve::PredictResponse::decode(resp.payload), direct);
    EXPECT_EQ(fleet.router->pool().ring_size(), 1u);
  }
}

TEST_F(RouterTest, AdminFanOutReachesEveryShard) {
  Fleet fleet = start_fleet(/*allow_admin=*/true);
  Client client = connect(fleet);

  // Per process: two concurrent runs of this suite must not rewrite each
  // other's artifact while its shards are loading it.
  const std::string model_path = ::testing::TempDir() +
                                 "atlas_router_fanout_model." +
                                 std::to_string(::getpid()) + ".bin";
  (*model_)->save(model_path);

  // Load lands on *both* shards (models are replicated, designs sharded).
  client.load_model("second", model_path);
  EXPECT_EQ(fleet.a->registry().size(), 2u);
  EXPECT_EQ(fleet.b->registry().size(), 2u);
  ASSERT_EQ(client.models().size(), 2u);

  // Unload retires the name fleet-wide.
  client.unload_model("second");
  EXPECT_EQ(fleet.a->registry().size(), 1u);
  EXPECT_EQ(fleet.b->registry().size(), 1u);

  // With one shard dead the fan-out reports partial application as an
  // error naming the unreachable shard — never a silent half-applied load.
  fleet.b->stop();
  try {
    client.load_model("third", model_path);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_NE(std::string(e.what()).find(fleet.id_b), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unreachable"), std::string::npos);
  }
  // The live shard did apply it — the report said so, and the registry
  // agrees.
  EXPECT_EQ(fleet.a->registry().size(), 2u);
}

TEST_F(RouterTest, AdminGateAndControlPlane) {
  Fleet fleet = start_fleet(/*allow_admin=*/false);
  Client client = connect(fleet);

  client.ping();
  try {
    client.unload_model("tiny");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAdminDisabled);
  }
  // The gate rejected at the tier edge; backends untouched.
  EXPECT_EQ(fleet.a->registry().size(), 1u);

  // models routes to a live shard like any request.
  const auto models = client.models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].name, "tiny");
  EXPECT_EQ(models[0].library_hash, liberty::content_hash(*lib_));

  // stats is the router's own per-backend table...
  const std::string stats = client.stats_text();
  EXPECT_NE(stats.find("atlas_router:"), std::string::npos);
  EXPECT_NE(stats.find(fleet.id_a), std::string::npos);
  EXPECT_NE(stats.find(fleet.id_b), std::string::npos);
  EXPECT_NE(stats.find("2/2 backends up"), std::string::npos);

  // ...and metrics expose the probe/ring series.
  const std::string metrics = client.metrics_text();
  EXPECT_NE(metrics.find("atlas_router_probe_latency_us"), std::string::npos);
  EXPECT_NE(metrics.find("atlas_router_ring_backends 2"), std::string::npos);
}

TEST_F(RouterTest, StatsJsonIsOneObjectOfTheBackendTable) {
  Fleet fleet = start_fleet();
  Client client = connect(fleet);
  const std::string text = client.stats_text(/*json=*/true);
  test::Json doc;
  ASSERT_NO_THROW(doc = test::JsonParser(text).parse()) << text;
  ASSERT_EQ(doc.type, test::Json::Type::kObject) << text;
  EXPECT_EQ(doc.at("backends_up").num, 2);
  EXPECT_GT(doc.at("ring_size").num, 0);
  EXPECT_EQ(doc.at("replicas").num, 1);
  const test::Json& backends = doc.at("backends");
  ASSERT_EQ(backends.type, test::Json::Type::kArray);
  ASSERT_EQ(backends.arr.size(), 2u);
  std::set<std::string> ids;
  for (const test::Json& b : backends.arr) {
    ids.insert(b.at("id").str);
    EXPECT_EQ(b.at("state").str, "up");
    EXPECT_TRUE(b.at("in_ring").b);
    EXPECT_GT(b.at("probes_ok").num, 0);
    EXPECT_EQ(b.at("models").num, 1);
    EXPECT_EQ(b.at("overloaded").type, test::Json::Type::kBool);
  }
  EXPECT_EQ(ids, (std::set<std::string>{fleet.id_a, fleet.id_b}));
  // The plain table still answers the default mode.
  EXPECT_NE(client.stats_text().find("atlas_router:"), std::string::npos);
}

TEST_F(RouterTest, ClientSeesThatTheRouterStrippedTheLoadReport) {
  Fleet fleet = start_fleet();
  Client client = connect(fleet);
  serve::LoadReport load;
  const PredictResponse resp =
      client.predict(make_request(design_variant(304)), &load);
  EXPECT_FALSE(resp.has_load);
  expect_matches(resp, *expected_w1_);

  // Direct to a shard the same request gets its report.
  Client direct = Client::connect_tcp("127.0.0.1", fleet.a->port());
  EXPECT_TRUE(
      direct.predict(make_request(design_variant(304)), &load).has_load);
  EXPECT_FALSE(direct.predict(make_request(design_variant(304))).has_load);
}

// ---- PR 8: fleet observability --------------------------------------------

TEST(FleetObs, MergePrometheusInjectsShardLabelsAndRegroupsFamilies) {
  const std::string a =
      "# HELP req_total requests\n"
      "# TYPE req_total counter\n"
      "req_total{endpoint=\"predict\"} 3\n"
      "req_total 1\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"64\"} 2\n"
      "lat_us_sum 100\n"
      "lat_us_count 2\n";
  const std::string b =
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"64\"} 5\n"
      "lat_us_sum 400\n"
      "lat_us_count 5\n"
      "# TYPE up gauge\n"
      "up 1\n";
  const std::string merged = merge_prometheus({{"s1", a}, {"s2", b}});

  // Labeled and unlabeled samples both pick up the shard label.
  EXPECT_NE(merged.find("req_total{endpoint=\"predict\",shard=\"s1\"} 3"),
            std::string::npos)
      << merged;
  EXPECT_NE(merged.find("req_total{shard=\"s1\"} 1"), std::string::npos);
  EXPECT_NE(merged.find("lat_us_bucket{le=\"64\",shard=\"s1\"} 2"),
            std::string::npos);
  EXPECT_NE(merged.find("lat_us_bucket{le=\"64\",shard=\"s2\"} 5"),
            std::string::npos);
  EXPECT_NE(merged.find("up{shard=\"s2\"} 1"), std::string::npos);

  // One TYPE header per family even when two shards export it, histogram
  // sub-series (_bucket/_sum/_count) grouped under the base family, and
  // families emitted in sorted order. HELP lines are dropped.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = merged.find(needle); pos != std::string::npos;
         pos = merged.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("# TYPE lat_us histogram"), 1u);
  EXPECT_EQ(count("# TYPE req_total counter"), 1u);
  EXPECT_EQ(count("# HELP"), 0u);
  const std::size_t lat = merged.find("# TYPE lat_us");
  const std::size_t req = merged.find("# TYPE req_total");
  const std::size_t up = merged.find("# TYPE up");
  EXPECT_LT(lat, req);
  EXPECT_LT(req, up);
  // Both shards' lat_us samples sit between the lat_us header and the next
  // family header (contiguous family block).
  EXPECT_LT(merged.find("lat_us_count{shard=\"s2\"} 5"), req);
}

TEST(FleetObs, MergePrometheusAsymmetricFleetEmitsOneTypePerSampleName) {
  // Regression: shard s1 exports the lat_us histogram, shard s2 does not
  // have it but exports a standalone counter whose name collides with the
  // histogram's _count sub-series. Grouping each shard independently used
  // to emit two # TYPE headers covering the `lat_us_count` sample name —
  // an invalid exposition. The standalone family must fold into the
  // histogram block instead.
  const std::string s1 =
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"64\"} 2\n"
      "lat_us_sum 100\n"
      "lat_us_count 2\n";
  const std::string s2 =
      "# TYPE lat_us_count counter\n"
      "lat_us_count 7\n"
      "# TYPE up gauge\n"
      "up 1\n";
  auto count = [](const std::string& hay, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };

  // Both shard orders: the histogram may be parsed before or after the
  // colliding standalone family, the fold must be order-independent.
  for (const auto& shards :
       {std::vector<std::pair<std::string, std::string>>{{"s1", s1},
                                                         {"s2", s2}},
        std::vector<std::pair<std::string, std::string>>{{"s2", s2},
                                                         {"s1", s1}}}) {
    const std::string merged = merge_prometheus(shards);
    EXPECT_EQ(count(merged, "# TYPE lat_us histogram"), 1u) << merged;
    EXPECT_EQ(count(merged, "# TYPE lat_us_count"), 0u) << merged;
    // Neither shard's samples are lost: both lat_us_count series survive
    // under the one histogram header, inside the family's block.
    EXPECT_NE(merged.find("lat_us_count{shard=\"s1\"} 2"), std::string::npos)
        << merged;
    EXPECT_NE(merged.find("lat_us_count{shard=\"s2\"} 7"), std::string::npos)
        << merged;
    const std::size_t hist = merged.find("# TYPE lat_us histogram");
    const std::size_t up = merged.find("# TYPE up gauge");
    ASSERT_NE(up, std::string::npos);
    EXPECT_LT(hist, merged.find("lat_us_count{shard=\"s2\"} 7"));
    EXPECT_LT(merged.find("lat_us_count{shard=\"s2\"} 7"), up);
  }
}

/// Restores the global tracer to its default-off state no matter how the
/// test exits (the ring is process-global).
struct TraceGuard {
  ~TraceGuard() {
    obs::Trace::disable();
    obs::Trace::clear();
  }
};

const obs::TraceEventView* find_span(
    const std::vector<obs::TraceEventView>& events, const std::string& category,
    const std::string& name) {
  for (const auto& e : events) {
    if (e.category == category && e.name == name) return &e;
  }
  return nullptr;
}

TEST_F(RouterTest, PredictThroughRouterLinksAllThreeTiersInOneTrace) {
  Fleet fleet = start_fleet();
  Client client = connect(fleet);
  ASSERT_EQ(fleet.router->pool().ring_size(), 2u);

  const std::string verilog = design_variant(300);
  const std::string owner = expected_owner(fleet, verilog);

  TraceGuard guard;
  obs::Trace::enable();
  obs::Trace::clear();
  expect_matches(client.predict(make_request(verilog)), *expected_w1_);

  // Client, router and both backends run in one process here, so every
  // tier's spans land in the same ring and the full cross-tier parent
  // chain — the acceptance contract for merged fleet traces — is directly
  // assertable: client predict -> router predict -> forward:<owner> ->
  // serve handle_predict, all under one 128-bit trace id.
  const auto events = obs::Trace::snapshot();
  const obs::TraceEventView* cli = find_span(events, "client", "predict");
  const obs::TraceEventView* rtr = find_span(events, "router", "predict");
  const obs::TraceEventView* fwd =
      find_span(events, "router", "forward:" + owner);
  const obs::TraceEventView* srv = find_span(events, "serve", "handle_predict");
  ASSERT_NE(cli, nullptr);
  ASSERT_NE(rtr, nullptr);
  ASSERT_NE(fwd, nullptr);
  ASSERT_NE(srv, nullptr);

  ASSERT_TRUE((cli->ids.trace_hi | cli->ids.trace_lo) != 0);
  for (const obs::TraceEventView* e : {rtr, fwd, srv}) {
    EXPECT_EQ(e->ids.trace_hi, cli->ids.trace_hi);
    EXPECT_EQ(e->ids.trace_lo, cli->ids.trace_lo);
  }
  EXPECT_EQ(cli->ids.parent_span_id, 0u);  // the client originated the trace
  EXPECT_EQ(rtr->ids.parent_span_id, cli->ids.span_id);
  EXPECT_EQ(fwd->ids.parent_span_id, rtr->ids.span_id);
  EXPECT_EQ(srv->ids.parent_span_id, fwd->ids.span_id);
}

TEST_F(RouterTest, FailoverAttemptsStayInTheRequestsTrace) {
  // Hand-built fleet with an hour-long probe interval: after the initial
  // sweep admits both backends, the prober never runs again, so killing
  // the owner cannot race the ring eviction — the router is guaranteed to
  // route to the dead owner first and fail over *in-request*, which is
  // the path whose spans this test pins.
  Fleet fleet;
  fleet.a = start_backend(false);
  fleet.b = start_backend(false);
  fleet.id_a = "127.0.0.1:" + std::to_string(fleet.a->port());
  fleet.id_b = "127.0.0.1:" + std::to_string(fleet.b->port());
  RouterConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  cfg.probe.interval_ms = 3'600'000;
  cfg.probe.timeout_ms = 1000;
  fleet.router = std::make_unique<Router>(
      cfg, parse_backend_list(fleet.id_a + "," + fleet.id_b));
  fleet.router->start();
  Client client = connect(fleet);
  ASSERT_EQ(fleet.router->pool().ring_size(), 2u);

  const std::string verilog = design_variant(301);
  const std::string owner = expected_owner(fleet, verilog);
  serve::Server& owner_server = owner == fleet.id_a ? *fleet.a : *fleet.b;
  const std::string survivor = owner == fleet.id_a ? fleet.id_b : fleet.id_a;

  TraceGuard guard;
  obs::Trace::enable();
  obs::Trace::clear();

  owner_server.stop();
  expect_matches(client.predict(make_request(verilog)), *expected_w1_);

  const auto events = obs::Trace::snapshot();
  const obs::TraceEventView* rtr = find_span(events, "router", "predict");
  const obs::TraceEventView* dead =
      find_span(events, "router", "forward:" + owner);
  const obs::TraceEventView* live =
      find_span(events, "router", "forward:" + survivor);
  const obs::TraceEventView* srv = find_span(events, "serve", "handle_predict");
  ASSERT_NE(rtr, nullptr);
  ASSERT_NE(dead, nullptr) << "failed attempt left no span";
  ASSERT_NE(live, nullptr);
  ASSERT_NE(srv, nullptr);

  // Both attempts are children of the same router span in the same trace;
  // the backend's span hangs off the attempt that reached it.
  EXPECT_EQ(dead->ids.trace_lo, rtr->ids.trace_lo);
  EXPECT_EQ(live->ids.trace_lo, rtr->ids.trace_lo);
  EXPECT_EQ(dead->ids.parent_span_id, rtr->ids.span_id);
  EXPECT_EQ(live->ids.parent_span_id, rtr->ids.span_id);
  EXPECT_EQ(srv->ids.parent_span_id, live->ids.span_id);
}

TEST_F(RouterTest, RoutedPredictionsBitIdenticalTracingOnVsOff) {
  Fleet fleet = start_fleet();
  Client client = connect(fleet);

  const std::string verilog = design_variant(302);
  const PredictResponse off = client.predict(make_request(verilog));
  expect_matches(off, *expected_w1_);

  TraceGuard guard;
  obs::Trace::enable();
  obs::Trace::clear();
  // The traced path sets the per-attempt context in the forwarded frame's
  // extension block; the payload the backend computes on is forwarded
  // unchanged, so the answer stays bit-identical to the untraced one.
  const PredictResponse on = client.predict(make_request(verilog));
  expect_matches(on, *expected_w1_);
  ASSERT_EQ(on.design.size(), off.design.size());
  for (std::size_t c = 0; c < off.design.size(); ++c) {
    EXPECT_EQ(on.design[c].comb, off.design[c].comb);
    EXPECT_EQ(on.design[c].reg, off.design[c].reg);
    EXPECT_EQ(on.design[c].clock, off.design[c].clock);
  }
}

// The router forwards the client's payload bytes and rewrites only the
// frame's extension block: the backend's timing reaches the client, the
// load report the router asked for does not.
TEST_F(RouterTest, RoutedReplyRelaysTimingAndClearsTheLoadReport) {
  Fleet fleet = start_fleet();
  util::Socket raw = util::connect_tcp("127.0.0.1", fleet.router->port());
  const PredictRequest req = make_request(design_variant(303));
  serve::FrameExt ext;
  ext.want_timing = true;
  serve::write_frame(raw, serve::MsgType::kPredict, req.encode(), ext);
  serve::Frame resp;
  ASSERT_TRUE(serve::read_frame(raw, resp));
  ASSERT_EQ(resp.type, serve::MsgType::kPredictOk);
  ASSERT_TRUE(resp.ext.timing.has_value());
  EXPECT_GT(resp.ext.timing->total_us, 0u);
  EXPECT_FALSE(resp.ext.load.has_value());
  expect_matches(PredictResponse::decode(resp.payload), *expected_w1_);

  // Without the flag the relayed block is empty.
  serve::write_frame(raw, serve::MsgType::kPredict, req.encode());
  ASSERT_TRUE(serve::read_frame(raw, resp));
  ASSERT_EQ(resp.type, serve::MsgType::kPredictOk);
  EXPECT_FALSE(resp.ext.timing.has_value());
  EXPECT_FALSE(resp.ext.load.has_value());
}

TEST_F(RouterTest, FleetMetricsSelectorAggregatesAllShardsWithLabels) {
  Fleet fleet = start_fleet();
  Client client = connect(fleet);
  expect_matches(client.predict(make_request(design_variant(303))),
                 *expected_w1_);

  // Plain metrics: the router's own registry, including the per-backend
  // queue-depth gauge fed by health probes.
  const std::string own = client.metrics_text();
  EXPECT_NE(own.find("atlas_router_backend_up{backend=\"" + fleet.id_a +
                     "\"} 1"),
            std::string::npos);
  EXPECT_NE(own.find("# TYPE atlas_router_backend_queue_depth gauge"),
            std::string::npos);

  // --fleet: one scrape covering the router plus every backend, with each
  // series labeled by its source shard.
  const std::string fleet_text = client.metrics_text(/*fleet=*/true);
  EXPECT_NE(fleet_text.find("shard=\"router\""), std::string::npos);
  EXPECT_NE(fleet_text.find("shard=\"" + fleet.id_a + "\""),
            std::string::npos);
  EXPECT_NE(fleet_text.find("shard=\"" + fleet.id_b + "\""),
            std::string::npos);
  EXPECT_NE(fleet_text.find("atlas_router_ring_backends{shard=\"router\"} 2"),
            std::string::npos);

  // Merged output regroups families: one TYPE header per family even
  // though three sources exported overlapping registries.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = fleet_text.find(needle); pos != std::string::npos;
         pos = fleet_text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("# TYPE atlas_serve_requests_total counter"), 1u);
  EXPECT_EQ(count("# TYPE atlas_serve_request_latency_us histogram"), 1u);
}

TEST_F(RouterTest, TraceDumpFansOutAndIsAdminGated) {
  {
    Fleet fleet = start_fleet(/*allow_admin=*/false);
    Client client = connect(fleet);
    try {
      client.trace_dump_text();
      FAIL() << "router trace_dump should require --allow-admin";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kAdminDisabled);
    }
  }

  Fleet fleet = start_fleet(/*allow_admin=*/true);
  Client client = connect(fleet);

  TraceGuard guard;
  obs::Trace::enable();
  obs::Trace::clear();
  expect_matches(client.predict(make_request(design_variant(304))),
                 *expected_w1_);

  // The router drains its own ring and every backend's, answering one
  // merged Chrome trace document (in-process the ring is shared, so the
  // router's own drain already carries all tiers' spans — the merge and
  // fan-out paths still execute for real over the wire).
  const std::string merged = client.trace_dump_text();
  EXPECT_NE(merged.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(merged.find("\"handle_predict\""), std::string::npos);
  EXPECT_NE(merged.find("\"forward:"), std::string::npos);
  EXPECT_NE(merged.find("\"displayTimeUnit\""), std::string::npos);

  // Drained: a second fleet dump no longer carries the request's spans.
  EXPECT_EQ(client.trace_dump_text().find("\"handle_predict\""),
            std::string::npos);
}

// ---- PR 10: load-aware routing (hot-key replication + shedding) -----------

TEST(HotKeys, PromotionNeedsMinCountAndARankInsideTopK) {
  HotKeyTracker t(/*capacity=*/8, /*decay_interval=*/1'000'000);
  t.record(1);
  EXPECT_FALSE(t.is_hot(1, /*top_k=*/4, /*min_count=*/2)) << "below min_count";
  t.record(1);
  EXPECT_TRUE(t.is_hot(1, 4, 2));

  // Four keys pull strictly ahead of key 9 (count 5 vs 3): with top_k = 4
  // it is crowded out of the hot set, with top_k = 5 it is back in.
  for (std::uint64_t k = 2; k <= 5; ++k) {
    for (int i = 0; i < 5; ++i) t.record(k);
  }
  for (int i = 0; i < 3; ++i) t.record(9);
  EXPECT_EQ(t.count(9), 3u);
  EXPECT_FALSE(t.is_hot(9, 4, 2));
  EXPECT_TRUE(t.is_hot(9, 5, 2));
  // Equal counts rank by key ascending, so key 2 leads the count-5 tie and
  // nothing is strictly ahead of it.
  EXPECT_TRUE(t.is_hot(2, 1, 2));
  EXPECT_FALSE(t.is_hot(5, 2, 2));  // keys 2,3 ahead within the tie
  EXPECT_FALSE(t.is_hot(1, 0, 1)) << "top_k 0 means nothing is hot";
}

TEST(HotKeys, DecayHalvesCountsSoYesterdaysHotKeyAgesOut) {
  HotKeyTracker t(/*capacity=*/8, /*decay_interval=*/16);
  for (int i = 0; i < 10; ++i) t.record(1);
  ASSERT_EQ(t.count(1), 10u);
  // Records 11..15 count key 2 normally; the 16th triggers the halving
  // first (1: 10 -> 5, 2: 5 -> 2), then counts.
  for (int i = 0; i < 6; ++i) t.record(2);
  EXPECT_EQ(t.count(1), 5u);
  EXPECT_EQ(t.count(2), 3u);
  // Keys decayed to zero leave the tracker entirely (capacity reclaimed).
  HotKeyTracker d(8, 4);
  d.record(7);
  for (int i = 0; i < 4; ++i) d.record(8);
  EXPECT_EQ(d.count(7), 0u);
  EXPECT_EQ(d.tracked(), 1u);
}

TEST(HotKeys, EvictionIsDeterministicAndOverestimatesNewcomers) {
  HotKeyTracker t(/*capacity=*/2, /*decay_interval=*/1'000'000);
  for (int i = 0; i < 3; ++i) t.record(1);
  t.record(2);
  ASSERT_EQ(t.tracked(), 2u);
  // Full tracker: the newcomer evicts the minimum and inherits min + 1 —
  // the space-saving overestimate can promote early, never suppress.
  t.record(7);
  EXPECT_EQ(t.count(2), 0u);
  EXPECT_EQ(t.count(7), 2u);
  EXPECT_EQ(t.count(1), 3u);

  // Count ties pick the smallest key as victim — identical histories give
  // identical tracker states on any router replica.
  HotKeyTracker u(2, 1'000'000);
  u.record(9);
  u.record(5);
  u.record(7);
  EXPECT_EQ(u.count(5), 0u) << "min-key tie-break must evict key 5";
  EXPECT_EQ(u.count(9), 1u);
  EXPECT_EQ(u.count(7), 2u);
}

TEST(RoutePolicy, OrderCandidatesIsDeterministicAndWarmthStable) {
  auto cand = [](const char* id, std::size_t pos, std::uint64_t load,
                 bool fresh, bool overloaded) {
    RouteCandidate c;
    c.id = id;
    c.chain_pos = pos;
    c.load = load;
    c.load_fresh = fresh;
    c.overloaded = overloaded;
    return c;
  };

  // Fresh lower depth beats fresh higher depth; any fresh depth beats a
  // stale one (whatever number the stale one froze at); overloaded sorts
  // last regardless of depth.
  auto ordered = order_candidates({
      cand("overloaded-idle", 0, 0, true, true),
      cand("stale-zero", 1, 0, false, false),
      cand("fresh-busy", 2, 5, true, false),
      cand("fresh-idle", 3, 1, true, false),
  });
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(ordered[0].id, "fresh-idle");
  EXPECT_EQ(ordered[1].id, "fresh-busy");
  EXPECT_EQ(ordered[2].id, "stale-zero");
  EXPECT_EQ(ordered[3].id, "overloaded-idle");

  // The warmth-stability contract: equal-load replicas always resolve to
  // the earliest chain position (the owner), so an idle fleet routes
  // exactly like single-owner consistent hashing — no oscillation that
  // would cold-start both replicas. Pinned across input orderings.
  for (int perm = 0; perm < 2; ++perm) {
    std::vector<RouteCandidate> tie = {cand("successor", 1, 0, true, false),
                                       cand("owner", 0, 0, true, false)};
    if (perm == 1) std::swap(tie[0], tie[1]);
    const auto out = order_candidates(std::move(tie));
    EXPECT_EQ(out[0].id, "owner") << "perm " << perm;
    EXPECT_EQ(out[1].id, "successor") << "perm " << perm;
  }
}

TEST(HashRing, ReplicasAreAlwaysAPrefixOfThePreferenceChain) {
  const std::vector<std::string> ids = make_backend_ids(5);
  HashRing ring(64);
  for (const std::string& id : ids) ring.add(id);
  for (std::size_t k = 0; k < 300; ++k) {
    const std::uint64_t key = util::hash_mix(0xbf58476d1ce4e5b9ull, k);
    const std::vector<std::string> chain = ring.preference(key, ids.size());
    for (std::size_t r = 0; r <= ids.size() + 1; ++r) {
      const std::vector<std::string> reps = ring.preference(key, r);
      ASSERT_EQ(reps.size(), std::min(r, chain.size()));
      for (std::size_t i = 0; i < reps.size(); ++i) {
        // The containment invariant route_load_aware leans on: promotion
        // to hot only widens placement to shards already in the failover
        // order, so failover from any replica lands on another replica or
        // the successor that would inherit the key's arc.
        EXPECT_EQ(reps[i], chain[i]) << "key " << k << " r " << r;
      }
    }
  }
}

/// Minimal ATSP speaker answering health probes with a fixed queue depth
/// (and an empty model list). Real servers drain their dispatcher queue
/// too fast for a test to pin a nonzero depth; this keeps the number the
/// probe sees under test control. With `answers_draining` it also answers
/// Predict and StreamBegin with kShuttingDown, like a shard that began
/// draining after its last probe, then closes that connection so the next
/// probe is served.
class FakeBackend {
 public:
  explicit FakeBackend(std::uint64_t queue_depth,
                       bool answers_draining = false)
      : depth_(queue_depth), answers_draining_(answers_draining) {
    listener_ = util::Listener::tcp("127.0.0.1", port_);
    thread_ = std::thread([this] { serve_loop(); });
  }
  ~FakeBackend() { stop(); }

  void stop() {
    if (stopped_.exchange(true)) return;
    if (thread_.joinable()) thread_.join();
    listener_.close();
  }

  std::string id() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  void serve_loop() {
    while (!stopped_) {
      std::optional<util::Socket> sock = listener_.accept(50);
      if (!sock) continue;
      try {
        serve::Frame frame;
        while (serve::read_frame(*sock, frame)) {
          if (frame.type == serve::MsgType::kHealth) {
            serve::HealthResponse health;
            health.registry_generation = 1;
            health.num_models = 1;
            health.queue_depth = depth_;
            serve::write_frame(*sock, serve::MsgType::kHealthReport,
                               health.encode());
          } else if (frame.type == serve::MsgType::kListModels) {
            serve::write_frame(*sock, serve::MsgType::kModelList,
                               serve::ModelListResponse{}.encode());
          } else if (answers_draining_ &&
                     (frame.type == serve::MsgType::kPredict ||
                      frame.type == serve::MsgType::kStreamBegin)) {
            const serve::Frame reply =
                serve::error_reply(ErrorCode::kShuttingDown, "draining");
            serve::write_frame(*sock, reply.type, reply.payload);
            break;
          } else {
            break;
          }
        }
      } catch (const std::exception&) {
        // Peer went away mid-frame; keep accepting.
      }
    }
  }

  std::uint64_t depth_;
  bool answers_draining_;
  int port_ = 0;
  util::Listener listener_;
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

TEST(BackendPoolTest, QueueDepthGaugeZeroesOnTheFirstFailedProbe) {
  FakeBackend backend(/*queue_depth=*/7);
  ProbeConfig probe;
  probe.interval_ms = 3'600'000;  // sweeps driven by hand, never scheduled
  probe.timeout_ms = 500;
  probe.fail_threshold = 2;
  BackendPool pool({parse_backend(backend.id())}, probe);
  obs::Gauge& gauge = obs::Registry::global().gauge(
      "atlas_router_backend_queue_depth", "backend=\"" + backend.id() + "\"");

  pool.probe_all_now();
  std::vector<BackendStatus> statuses = pool.snapshot();
  ASSERT_EQ(statuses.size(), 1u);
  ASSERT_EQ(statuses[0].state, BackendState::kUp);
  EXPECT_TRUE(statuses[0].load_fresh);
  EXPECT_EQ(statuses[0].load, 7u);
  EXPECT_EQ(gauge.value(), 7);

  // ONE failed probe: below fail_threshold the backend stays kUp and in
  // the ring, but the depth is now a number about a backend that may be
  // gone. Regression (the staleness bug this PR fixes): the gauge kept
  // publishing 7 — and the snapshot kept claiming the depth was current —
  // until the second failure evicted the backend.
  backend.stop();
  pool.probe_all_now();
  statuses = pool.snapshot();
  EXPECT_EQ(statuses[0].consecutive_failures, 1);
  EXPECT_EQ(statuses[0].state, BackendState::kUp);
  EXPECT_TRUE(statuses[0].in_ring);
  EXPECT_FALSE(statuses[0].load_fresh);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(BackendPoolTest, OpenForwardsSpreadConcurrentHotPicks) {
  // Picks made between two load reports see the same reported depths; the
  // open forwards each pick charges are what keep them from herding onto
  // one replica. Closing them restores the warmth-stable tie to the owner.
  FakeBackend a(/*queue_depth=*/0);
  FakeBackend b(/*queue_depth=*/0);
  ProbeConfig probe;
  probe.interval_ms = 3'600'000;  // sweeps driven by hand, never scheduled
  RoutingConfig routing;
  routing.replicas = 2;
  routing.hot_top_k = 1;
  routing.hot_min_requests = 2;
  BackendPool pool({parse_backend(a.id()), parse_backend(b.id())}, probe,
                   routing);
  pool.probe_all_now();
  const std::uint64_t key = 0x5eed;
  const std::vector<std::string> chain = pool.route(key);
  ASSERT_EQ(chain.size(), 2u);
  pool.route_load_aware(key);
  pool.route_load_aware(key);
  ASSERT_TRUE(pool.is_hot_key(key));

  // Four picks with nothing answered: owner, replica, owner, replica.
  std::vector<std::string> picks;
  for (int i = 0; i < 4; ++i) {
    picks.push_back(pool.route_load_aware(key, /*open_forward=*/true).front());
  }
  EXPECT_EQ(picks, (std::vector<std::string>{chain[0], chain[1], chain[0],
                                             chain[1]}));
  for (const std::string& id : picks) pool.forward_done(id);
  // All answered: the tie goes back to the owner, pick after pick.
  EXPECT_EQ(pool.route_load_aware(key).front(), chain[0]);
  EXPECT_EQ(pool.route_load_aware(key).front(), chain[0]);
}

TEST(BackendPoolTest, SynchronousSweepIsBoundedByOneTimeoutNotPerBackend) {
  // Black holes: bound and listening but never accepting. A probe's
  // connect lands in the kernel backlog and succeeds, then the health
  // round trip stalls until the IO timeout — the worst case a
  // dead-but-routable shard can offer, and the slowest probe there is.
  constexpr int kBackends = 4;
  constexpr int kTimeoutMs = 600;
  std::vector<util::Listener> holes;
  std::string csv;
  for (int i = 0; i < kBackends; ++i) {
    int port = 0;
    holes.push_back(util::Listener::tcp("127.0.0.1", port));
    if (!csv.empty()) csv += ",";
    csv += "127.0.0.1:" + std::to_string(port);
  }
  ProbeConfig probe;
  probe.interval_ms = 3'600'000;
  probe.timeout_ms = kTimeoutMs;
  BackendPool pool(parse_backend_list(csv), probe);

  const auto t0 = std::chrono::steady_clock::now();
  pool.probe_all_now();  // what a client `health` request runs synchronously
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  // Regression (the blocking bug this PR fixes): the sequential sweep cost
  // timeout x backends — 2.4s here — per health request. The concurrent
  // sweep is bounded near ONE timeout; 2x leaves slack for thread spin-up
  // on a loaded CI box while staying far under the sequential cost.
  EXPECT_LT(elapsed_ms, 2 * kTimeoutMs) << "sweep took " << elapsed_ms << "ms";
  for (const BackendStatus& s : pool.snapshot()) {
    EXPECT_GE(s.probes_failed, 1u) << s.address.id;
    EXPECT_FALSE(s.load_fresh);
  }
}

std::uint64_t routed_requests(const std::string& backend) {
  return obs::Registry::global()
      .counter("atlas_router_requests_total", "backend=\"" + backend + "\"")
      .value();
}

TEST_F(RouterTest, HotDesignReplicationBalancesSkewBitIdentically) {
  // Three shards; >=70% of the volley hits ONE design. With replicas=2 the
  // hot key's chain prefix becomes eligible and the queue-depth policy
  // spreads it — while every response stays bit-identical to direct
  // serving (the piggybacked load tail must never leak to the client).
  serve::ServerConfig bcfg;
  bcfg.host = "127.0.0.1";
  bcfg.port = 0;
  bcfg.dispatch_delay_for_test_ms = 20;  // keep in-flight depth observable
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::vector<std::string> ids;
  std::string csv;
  for (int i = 0; i < 3; ++i) {
    shards.push_back(std::make_unique<serve::Server>(bcfg, make_registry()));
    shards.back()->start();
    ids.push_back("127.0.0.1:" + std::to_string(shards.back()->port()));
    csv += (i ? "," : "") + ids.back();
  }
  RouterConfig rcfg;
  rcfg.host = "127.0.0.1";
  rcfg.port = 0;
  rcfg.probe.interval_ms = 100;
  rcfg.probe.timeout_ms = 1000;
  rcfg.routing.replicas = 2;
  rcfg.routing.hot_top_k = 4;
  rcfg.routing.hot_min_requests = 4;
  Router router(rcfg, parse_backend_list(csv));
  router.start();
  ASSERT_EQ(router.pool().ring_size(), 3u);

  const std::string hot = design_variant(400);
  const std::uint64_t key =
      util::hash_mix(util::fnv1a64(hot), liberty::content_hash(*lib_));
  HashRing ring(ProbeConfig{}.vnodes);
  for (const std::string& id : ids) ring.add(id);
  const std::vector<std::string> chain = ring.preference(key, ids.size());
  ASSERT_EQ(chain.size(), 3u);

  std::map<std::string, std::uint64_t> before;
  for (const std::string& id : ids) before[id] = routed_requests(id);

  // Warm-up: sequential hot requests cross hot_min_requests and promote
  // the key...
  Client warm = Client::connect_tcp("127.0.0.1", router.port());
  constexpr int kWarmup = 6;
  for (int i = 0; i < kWarmup; ++i) {
    expect_matches(warm.predict(make_request(hot)), *expected_w1_);
  }
  EXPECT_TRUE(router.pool().is_hot_key(key));
  auto server_for = [&](const std::string& id) -> serve::Server& {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) return *shards[i];
    }
    throw std::logic_error("unknown shard " + id);
  };
  // ...while an idle fleet's depth ties keep resolving to the owner
  // (warmth-stable tie-breaking): replication eligibility alone moved no
  // traffic, so the first replica is still cold.
  EXPECT_EQ(server_for(chain[0]).health_snapshot().cache_designs, 1u);
  EXPECT_EQ(server_for(chain[1]).health_snapshot().cache_designs, 0u);

  // Skewed volley: 4 concurrent clients, 70% on the hot design, in
  // lockstep rounds. A barrier releases each round's 4 requests together,
  // and the 20 ms dispatch delay holds every one of them in flight until
  // all 4 are routed, so each round overlaps fully no matter how the
  // threads are scheduled. Every hot round then splits 2/2 over the two
  // replicas: each pick charges its replica one open forward, so the next
  // pick in the round sees it.
  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<int> failures{0};
  std::barrier round(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client rc = Client::connect_tcp("127.0.0.1", router.port());
        for (int r = 0; r < kPerClient; ++r) {
          round.arrive_and_wait();
          const bool hot_request = (r % 16) < 11;  // ~70% on one design
          const std::string verilog =
              hot_request ? hot : design_variant(2000 + c * 100 + r);
          expect_matches(rc.predict(make_request(verilog)), *expected_w1_);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "volley client " << c << ": " << e.what();
        failures.fetch_add(1);
        round.arrive_and_drop();  // never strand the other clients
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::map<std::string, std::uint64_t> counts;
  std::uint64_t total = 0;
  std::uint64_t max_count = 0;
  for (const std::string& id : ids) {
    counts[id] = routed_requests(id) - before[id];
    total += counts[id];
    max_count = std::max(max_count, counts[id]);
  }
  // Every request routed (the counter ticks once per forward attempt, so a
  // rare transient failover may add a unit — never subtract one).
  const std::uint64_t sent =
      static_cast<std::uint64_t>(kWarmup + kClients * kPerClient);
  EXPECT_GE(total, sent);
  EXPECT_LE(total, sent + 4);
#if !ATLAS_TSAN_ACTIVE
  // The acceptance bound: with the hot design spread over its replicas no
  // shard carries more than 2x the mean request share. Single-owner
  // routing parks ~75% of this volley on the owner and fails it. Skipped
  // under TSan: its ~10x slowdown can stretch a round's routing past the
  // 20 ms hold, so replies land between the round's picks — a timing
  // artifact, not a policy regression. The deterministic assertions
  // (bit-identity, totals, failover) still run.
  EXPECT_LE(max_count * ids.size(), 2 * total)
      << chain[0] << "=" << counts[chain[0]] << " " << chain[1] << "="
      << counts[chain[1]] << " " << chain[2] << "=" << counts[chain[2]];
  // Both replicas took a meaningful share, and both hold the hot design's
  // artifacts now (cache duplication bounded to the replicated key).
  EXPECT_GE(counts[chain[1]], total / 10);
  EXPECT_GE(server_for(chain[1]).health_snapshot().cache_designs, 1u);
#endif

  // The stats surface reports the new policy state.
  const std::string stats = router.stats_text();
  EXPECT_NE(stats.find("(replicas 2)"), std::string::npos) << stats;
  EXPECT_NE(stats.find("hot keys"), std::string::npos);
  EXPECT_NE(stats.find(", load "), std::string::npos);

  // A dying replica must not strand the hot key: kill the tie-preferred
  // shard and the next hot request fails over inside the chain, still
  // bit-identical (the second replica is even warm already).
  server_for(chain[0]).stop();
  expect_matches(warm.predict(make_request(hot)), *expected_w1_);
  router.stop();
}

TEST_F(RouterTest, ReplicatedStreamFailsOverWithReplayWhenTheReplicaDies) {
  // Streamed reference for the replicated design (comments are stripped at
  // parse, so the variant predicts identically to the base design).
  netlist::Netlist gate = netlist::parse_verilog(*verilog_, *lib_);
  sim::CycleSimulator simulator(gate);
  sim::StimulusGenerator stimulus(gate, sim::make_w1());
  const sim::ToggleTrace sim_trace = simulator.run(stimulus, kCycles);
  const std::string vcd =
      sim::write_vcd(gate, sim_trace, simulator.clock_net_mask());
  const sim::ExternalTrace ext = sim::ExternalTrace::from_vcd_text(vcd);
  const auto graphs = graph::build_submodule_graphs(gate);
  const core::Prediction direct =
      (*model_)->predict(gate, graphs, ext.resolve(gate));

  // Hand-built fleet: replication on, hour-long probe interval so ring
  // membership is frozen after the initial sweep — the mid-stream kill
  // must be discovered by the data path, not the prober.
  Fleet fleet;
  fleet.a = start_backend(false);
  fleet.b = start_backend(false);
  fleet.id_a = "127.0.0.1:" + std::to_string(fleet.a->port());
  fleet.id_b = "127.0.0.1:" + std::to_string(fleet.b->port());
  RouterConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  cfg.probe.interval_ms = 3'600'000;
  cfg.probe.timeout_ms = 1000;
  cfg.routing.replicas = 2;
  cfg.routing.hot_top_k = 2;
  cfg.routing.hot_min_requests = 2;
  fleet.router = std::make_unique<Router>(
      cfg, parse_backend_list(fleet.id_a + "," + fleet.id_b));
  fleet.router->start();
  Client client = connect(fleet);
  ASSERT_EQ(fleet.router->pool().ring_size(), 2u);

  const std::string verilog = design_variant(500);
  const std::string owner = expected_owner(fleet, verilog);
  serve::Server& owner_server = owner == fleet.id_a ? *fleet.a : *fleet.b;
  serve::Server& survivor_server = owner == fleet.id_a ? *fleet.b : *fleet.a;

  // Promote the key hot; with both replicas idle (fresh depth 0 from the
  // initial sweep and the request piggyback) every tie resolves to the
  // owner, so the owner alone is warm — deterministically.
  for (int i = 0; i < 3; ++i) {
    expect_matches(client.predict(make_request(verilog)), *expected_w1_);
  }
  const std::uint64_t key =
      util::hash_mix(util::fnv1a64(verilog), liberty::content_hash(*lib_));
  ASSERT_TRUE(fleet.router->pool().is_hot_key(key));
  EXPECT_EQ(owner_server.health_snapshot().cache_designs, 1u);
  EXPECT_EQ(survivor_server.health_snapshot().cache_designs, 0u);

  // Stream the replicated design frame by frame; kill the chosen replica
  // after the first chunk. The router must replay the acked prefix onto
  // the other replica and finish the stream bit-identically.
  util::Socket raw = util::connect_tcp("127.0.0.1", fleet.router->port());
  serve::StreamBeginRequest begin;
  begin.model = "tiny";
  begin.netlist_verilog = verilog;
  begin.cycles = kCycles;
  begin.trace_bytes = vcd.size();
  serve::write_frame(raw, serve::MsgType::kStreamBegin, begin.encode());
  serve::Frame resp;
  ASSERT_TRUE(serve::read_frame(raw, resp));
  ASSERT_EQ(resp.type, serve::MsgType::kStreamAck);

  const std::size_t kChunk = 512;
  std::uint64_t seq = 0;
  std::size_t off = 0;
  serve::StreamChunk chunk;
  chunk.seq = seq++;
  chunk.data = vcd.substr(off, kChunk);
  off += chunk.data.size();
  serve::write_frame(raw, serve::MsgType::kStreamChunk, chunk.encode());
  ASSERT_TRUE(serve::read_frame(raw, resp));
  ASSERT_EQ(resp.type, serve::MsgType::kStreamAck);

  owner_server.stop();

  while (off < vcd.size()) {
    chunk.seq = seq++;
    chunk.data = vcd.substr(off, kChunk);
    off += chunk.data.size();
    serve::write_frame(raw, serve::MsgType::kStreamChunk, chunk.encode());
    ASSERT_TRUE(serve::read_frame(raw, resp));
    ASSERT_EQ(resp.type, serve::MsgType::kStreamAck)
        << serve::ErrorResponse::decode(resp.payload).message;
  }
  serve::StreamEndRequest end;
  end.total_chunks = seq;
  end.total_bytes = vcd.size();
  serve::write_frame(raw, serve::MsgType::kStreamEnd, end.encode());
  ASSERT_TRUE(serve::read_frame(raw, resp));
  ASSERT_EQ(resp.type, serve::MsgType::kPredictOk)
      << serve::ErrorResponse::decode(resp.payload).message;
  expect_matches(serve::PredictResponse::decode(resp.payload), direct);
  EXPECT_EQ(fleet.router->pool().ring_size(), 1u);
  EXPECT_GE(survivor_server.health_snapshot().cache_designs, 1u);
}

TEST_F(RouterTest, RelaysOverloadedWhenEveryCandidateSheds) {
  // Single shedding backend behind the router: when the whole chain
  // answers kOverloaded the router must relay the error (not mask it as
  // kInternal or retry forever) so the client sees a clean backpressure
  // signal — and the shard must NOT be evicted: it is busy, not dead.
  serve::ServerConfig bcfg;
  bcfg.host = "127.0.0.1";
  bcfg.port = 0;
  bcfg.shed_queue_depth = 1;
  bcfg.dispatch_delay_for_test_ms = 200;
  auto backend = std::make_unique<serve::Server>(bcfg, make_registry());
  backend->start();
  const std::string id = "127.0.0.1:" + std::to_string(backend->port());

  RouterConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  cfg.probe.interval_ms = 3'600'000;
  cfg.probe.timeout_ms = 1000;
  Router router(cfg, parse_backend_list(id));
  router.start();
  Client client = Client::connect_tcp("127.0.0.1", router.port());

  // Warm the design while idle (admitted: depth 0 is under the watermark).
  const std::string warm_design = design_variant(600);
  expect_matches(client.predict(make_request(warm_design)), *expected_w1_);

  // Occupy the backend with an admitted warm request...
  std::thread occupant([&] {
    try {
      Client oc = Client::connect_tcp("127.0.0.1", router.port());
      oc.predict(make_request(warm_design));
    } catch (const std::exception& e) {
      ADD_FAILURE() << "occupant: " << e.what();
    }
  });
  ASSERT_TRUE(wait_for([&] { return backend->inflight_jobs() >= 1; }, 5000));

  // ...then a COLD design must come back kOverloaded through the router.
  try {
    client.predict(make_request(design_variant(601)));
    FAIL() << "expected kOverloaded";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
  }
  EXPECT_EQ(router.pool().ring_size(), 1u) << "shedding must not evict";
  occupant.join();

  // Once the shard drains, the same cold design is admitted and computes.
  ASSERT_TRUE(wait_for([&] { return backend->inflight_jobs() == 0; }, 5000));
  expect_matches(client.predict(make_request(design_variant(601))),
                 *expected_w1_);
  router.stop();
  backend->stop();
}

TEST_F(RouterTest, DrainingReplyFailsOverToTheNextCandidate) {
  // A shard that still probes healthy but answers kShuttingDown must leave
  // the ring, and the request must land on the next candidate of its chain
  // with the reply a direct serve gives: for Predict and StreamBegin alike.
  FakeBackend stub(/*queue_depth=*/0, /*answers_draining=*/true);
  std::unique_ptr<serve::Server> real = start_backend(/*allow_admin=*/false);
  const std::string real_id = "127.0.0.1:" + std::to_string(real->port());

  RouterConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  cfg.probe.interval_ms = 3'600'000;  // membership changes only by hand
  cfg.probe.timeout_ms = 1000;
  Router router(cfg, parse_backend_list(stub.id() + "," + real_id));
  router.start();
  ASSERT_EQ(router.pool().ring_size(), 2u);

  // A design whose chain starts at the stub, so the real shard is the
  // next candidate.
  HashRing ring(ProbeConfig{}.vnodes);
  ring.add(stub.id());
  ring.add(real_id);
  std::string verilog;
  for (int i = 700; i < 764 && verilog.empty(); ++i) {
    const std::uint64_t key = util::hash_mix(
        util::fnv1a64(design_variant(i)), liberty::content_hash(*lib_));
    if (ring.lookup(key) == stub.id()) verilog = design_variant(i);
  }
  ASSERT_FALSE(verilog.empty());

  const auto stub_status = [&] {
    for (const BackendStatus& s : router.pool().snapshot()) {
      if (s.address.id == stub.id()) return s;
    }
    return BackendStatus{};
  };
  const obs::Counter& stub_failovers = obs::Registry::global().counter(
      "atlas_router_failovers_total", "backend=\"" + stub.id() + "\"");
  const std::uint64_t failovers = stub_failovers.value();

  {
    Client client = Client::connect_tcp("127.0.0.1", router.port());
    const std::uint64_t served = routed_requests(real_id);
    expect_matches(client.predict(make_request(verilog)), *expected_w1_);
    EXPECT_EQ(routed_requests(real_id), served + 1);
  }
  EXPECT_EQ(stub_status().state, BackendState::kDraining);
  EXPECT_FALSE(stub_status().in_ring);
  EXPECT_EQ(stub_failovers.value(), failovers + 1);
  EXPECT_EQ(real->health_snapshot().cache_designs, 1u);

  // The stub still probes healthy, so a probe puts it back at the head of
  // the chain for the stream.
  router.pool().probe_all_now();
  ASSERT_TRUE(stub_status().in_ring);

  netlist::Netlist gate = netlist::parse_verilog(verilog, *lib_);
  sim::CycleSimulator simulator(gate);
  sim::StimulusGenerator stimulus(gate, sim::make_w1());
  const std::string vcd = sim::write_vcd(
      gate, simulator.run(stimulus, kCycles), simulator.clock_net_mask());
  const core::Prediction direct = (*model_)->predict(
      gate, graph::build_submodule_graphs(gate),
      sim::ExternalTrace::from_vcd_text(vcd).resolve(gate));
  {
    Client client = Client::connect_tcp("127.0.0.1", router.port());
    serve::StreamBeginRequest begin;
    begin.model = "tiny";
    begin.netlist_verilog = verilog;
    begin.cycles = kCycles;
    const std::uint64_t served = routed_requests(real_id);
    expect_matches(client.predict_stream(begin, vcd, 512), direct);
    EXPECT_GT(routed_requests(real_id), served);
  }
  EXPECT_EQ(stub_status().state, BackendState::kDraining);
  EXPECT_FALSE(stub_status().in_ring);
  EXPECT_EQ(stub_failovers.value(), failovers + 2);

  router.stop();
  real->stop();
}

}  // namespace
}  // namespace atlas::router
