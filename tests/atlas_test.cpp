#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "atlas/finetune.h"
#include "atlas/logic_cones.h"
#include "atlas/memory_model.h"
#include "atlas/metrics.h"
#include "atlas/model.h"
#include "atlas/preprocess.h"
#include "atlas/pretrain.h"
#include "netlist/verilog_io.h"
#include "obs/metrics.h"
#include "util/arena.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace atlas::core {
namespace {

/// Shared, lazily built fixture data: preparing designs is the expensive
/// part, so build two small ones once for the whole suite.
class AtlasCoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new liberty::Library(liberty::make_default_library());
    PreprocessConfig cfg;
    cfg.cycles = 40;
    train_ = new DesignData(
        prepare_design(designgen::paper_design_spec(1, 0.0025), *lib_, cfg));
    test_ = new DesignData(
        prepare_design(designgen::paper_design_spec(2, 0.0025), *lib_, cfg));
  }
  static void TearDownTestSuite() {
    delete train_;
    delete test_;
    delete lib_;
    train_ = nullptr;
    test_ = nullptr;
    lib_ = nullptr;
  }

  static liberty::Library* lib_;
  static DesignData* train_;
  static DesignData* test_;
};

liberty::Library* AtlasCoreTest::lib_ = nullptr;
DesignData* AtlasCoreTest::train_ = nullptr;
DesignData* AtlasCoreTest::test_ = nullptr;

/// The oracle for the inference encoder: SgFormer::forward_train (the
/// pre-training path) on every (graph, cycle) of the trace, plus the static
/// context and the toggle-weighted extras — no memo, no segments, no pool.
DesignEmbeddings reference_encode(
    const AtlasModel& model, const netlist::Netlist& gate,
    const std::vector<graph::SubmoduleGraph>& graphs,
    const sim::ToggleTrace& trace) {
  DesignEmbeddings emb;
  emb.num_cycles = trace.num_cycles();
  const std::size_t d = model.encoder().dim();
  const std::size_t cycles = static_cast<std::size_t>(emb.num_cycles);
  for (const graph::SubmoduleGraph& g : graphs) {
    DesignEmbeddings::PerGraph pg;
    pg.st = compute_submodule_static(gate, g);
    pg.emb = ml::Matrix(cycles, d);
    pg.extras.resize(cycles);
    const ml::SgFormer::NormAdjacency adj =
        ml::SgFormer::build_norm_adjacency(g.num_nodes(), &g.edges);
    for (int c = 0; c < emb.num_cycles; ++c) {
      ml::SgFormer::Activations act;
      graph::fill_cycle_features(g, trace, c, act.x);
      model.encoder().forward_train(adj, act,
                                    pg.emb.row(static_cast<std::size_t>(c)));
      pg.extras[static_cast<std::size_t>(c)] =
          compute_cycle_extras(g, pg.st, trace, c);
    }
    emb.graphs.push_back(std::move(pg));
  }
  return emb;
}

/// Byte-for-byte equality of everything the heads read: every embedding
/// row, every cycle's extras and the static context.
void expect_same_embeddings(const DesignEmbeddings& got,
                            const DesignEmbeddings& want,
                            const std::string& what) {
  ASSERT_EQ(got.num_cycles, want.num_cycles) << what;
  ASSERT_EQ(got.graphs.size(), want.graphs.size()) << what;
  for (std::size_t g = 0; g < want.graphs.size(); ++g) {
    const DesignEmbeddings::PerGraph& a = got.graphs[g];
    const DesignEmbeddings::PerGraph& b = want.graphs[g];
    ASSERT_EQ(a.emb.rows(), b.emb.rows()) << what;
    ASSERT_EQ(a.emb.cols(), b.emb.cols()) << what;
    for (std::size_t r = 0; r < b.emb.rows(); ++r) {
      EXPECT_EQ(std::memcmp(a.emb.row(r), b.emb.row(r),
                            b.emb.cols() * sizeof(float)),
                0)
          << what << " graph " << g << " cycle " << r;
    }
    ASSERT_EQ(a.extras.size(), b.extras.size()) << what;
    EXPECT_EQ(std::memcmp(a.extras.data(), b.extras.data(),
                          b.extras.size() * sizeof(CycleExtras)),
              0)
        << what << " graph " << g << " extras";
    EXPECT_EQ(a.st.n_comb, b.st.n_comb) << what;
    EXPECT_EQ(a.st.n_reg, b.st.n_reg) << what;
    EXPECT_EQ(a.st.internal_fj, b.st.internal_fj) << what;
    EXPECT_EQ(a.st.cap_ff, b.st.cap_ff) << what;
  }
}

TEST_F(AtlasCoreTest, PreprocessAlignsStages) {
  ASSERT_EQ(train_->gate_graphs.size(), train_->plus_graphs.size());
  ASSERT_EQ(train_->gate_graphs.size(), train_->post_graphs.size());
  for (std::size_t i = 0; i < train_->gate_graphs.size(); ++i) {
    EXPECT_EQ(train_->gate_graphs[i].submodule, train_->post_graphs[i].submodule);
    // Post-layout graphs may differ in size (buffers, clock tree) but not
    // wildly.
    const double ratio = static_cast<double>(train_->post_graphs[i].num_nodes()) /
                         static_cast<double>(train_->gate_graphs[i].num_nodes());
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 2.5);
  }
}

TEST_F(AtlasCoreTest, PreprocessRecordsTimers) {
  EXPECT_GT(train_->timers.get("pnr"), 0.0);
  EXPECT_GT(train_->timers.get("golden_sim"), 0.0);
  EXPECT_GT(train_->timers.get("atlas_pre"), 0.0);
}

TEST_F(AtlasCoreTest, WorkloadDataComplete) {
  ASSERT_EQ(train_->workloads.size(), 2u);
  for (const auto& wl : train_->workloads) {
    EXPECT_EQ(wl.gate_trace.num_cycles(), 40);
    EXPECT_EQ(wl.golden.num_cycles(), 40);
    EXPECT_GT(wl.golden.average_design().total(), 0.0);
    EXPECT_GT(wl.gate_level.average_design().total(), 0.0);
    // Gate level has no clock network.
    EXPECT_DOUBLE_EQ(wl.gate_level.average_design().clock, 0.0);
    EXPECT_GT(wl.golden.average_design().clock, 0.0);
  }
}

TEST_F(AtlasCoreTest, PretrainLossesDecrease) {
  PretrainConfig cfg;
  cfg.epochs = 4;
  cfg.cycles_per_graph = 2;
  cfg.dim = 16;
  const PretrainResult res = pretrain_encoder({train_}, cfg);
  ASSERT_EQ(res.report.epochs.size(), 4u);
  const EpochStats& first = res.report.epochs.front();
  const EpochStats& last = res.report.epochs.back();
  EXPECT_LT(last.total(), first.total());
  // Toggle task is learnable well above chance.
  EXPECT_GT(last.acc_toggle, 0.6);
  // Cross-stage alignment improves over random in-batch matching.
  EXPECT_GT(last.acc_cl_cross, 0.2);
}

TEST_F(AtlasCoreTest, TaskMaskDisablesTasks) {
  PretrainConfig cfg;
  cfg.epochs = 1;
  cfg.cycles_per_graph = 1;
  cfg.dim = 16;
  TaskMask only_toggle;
  only_toggle.node_type = only_toggle.size = false;
  only_toggle.cl_gate = only_toggle.cl_cross = false;
  const PretrainResult res = pretrain_encoder({train_}, cfg, only_toggle);
  const EpochStats& s = res.report.epochs.back();
  EXPECT_GT(s.loss_toggle, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_type, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_size, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_cl_gate, 0.0);
  EXPECT_DOUBLE_EQ(s.loss_cl_cross, 0.0);
}

TEST_F(AtlasCoreTest, PreprocessThreadEquivalenceBitExact) {
  // prepare_design runs workloads in parallel and parallelizes per-node
  // feature extraction; all outputs must be bit-identical at threads=1 vs
  // threads=4 (exact float comparisons, no tolerances).
  PreprocessConfig cfg;
  cfg.cycles = 20;
  const auto spec = designgen::paper_design_spec(3, 0.002);
  util::set_global_threads(1);
  const DesignData serial = prepare_design(spec, *lib_, cfg);
  util::set_global_threads(4);
  const DesignData threaded = prepare_design(spec, *lib_, cfg);
  util::set_global_threads(0);

  ASSERT_EQ(serial.workloads.size(), threaded.workloads.size());
  for (std::size_t w = 0; w < serial.workloads.size(); ++w) {
    const auto& a = serial.workloads[w];
    const auto& b = threaded.workloads[w];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.golden.num_cycles(), b.golden.num_cycles());
    for (int c = 0; c < a.golden.num_cycles(); ++c) {
      ASSERT_EQ(a.golden.design(c).total(), b.golden.design(c).total())
          << "workload " << w << " cycle " << c;
      ASSERT_EQ(a.gate_level.design(c).total(), b.gate_level.design(c).total())
          << "workload " << w << " cycle " << c;
      for (std::size_t sm = 0; sm < a.golden.num_submodules(); ++sm) {
        const auto id = static_cast<netlist::SubmoduleId>(sm);
        ASSERT_EQ(a.golden.submodule(c, id).total(),
                  b.golden.submodule(c, id).total());
      }
    }
    // Toggle traces byte-for-byte (gate and post-layout net spaces differ,
    // so each trace is compared over its own net range).
    ASSERT_EQ(a.gate_trace.num_nets(), b.gate_trace.num_nets());
    ASSERT_EQ(a.post_trace.num_nets(), b.post_trace.num_nets());
    for (int c = 0; c < a.gate_trace.num_cycles(); ++c) {
      for (netlist::NetId n = 0; n < a.gate_trace.num_nets(); ++n) {
        ASSERT_EQ(a.gate_trace.transitions(c, n), b.gate_trace.transitions(c, n));
        ASSERT_EQ(a.gate_trace.value(c, n), b.gate_trace.value(c, n));
      }
      for (netlist::NetId n = 0; n < a.post_trace.num_nets(); ++n) {
        ASSERT_EQ(a.post_trace.transitions(c, n), b.post_trace.transitions(c, n));
      }
    }
  }
  // Sub-module graphs: same structure and bit-identical static features.
  ASSERT_EQ(serial.gate_graphs.size(), threaded.gate_graphs.size());
  for (std::size_t g = 0; g < serial.gate_graphs.size(); ++g) {
    const auto& a = serial.gate_graphs[g];
    const auto& b = threaded.gate_graphs[g];
    ASSERT_EQ(a.submodule, b.submodule);
    ASSERT_EQ(a.cells, b.cells);
    ASSERT_EQ(a.edges, b.edges);
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    for (std::size_t i = 0; i < a.num_nodes(); ++i) {
      for (std::size_t j = 0; j < graph::kFeatureDim; ++j) {
        ASSERT_EQ(a.static_features.at(i, j), b.static_features.at(i, j))
            << "graph " << g << " node " << i << " feat " << j;
      }
    }
  }
}

TEST_F(AtlasCoreTest, SubmoduleStaticCountsMatchNetlist) {
  const auto& g = train_->gate_graphs[0];
  const SubmoduleStatic st = compute_submodule_static(train_->gate, g);
  int comb = 0, reg = 0;
  for (const auto cid : g.cells) {
    const auto group = liberty::power_group_of(train_->gate.lib_cell(cid).type);
    comb += group == liberty::PowerGroup::kComb;
    reg += group == liberty::PowerGroup::kRegister;
  }
  EXPECT_EQ(st.n_comb, comb);
  EXPECT_EQ(st.n_reg, reg);
  EXPECT_GT(st.clockpin_reg_fj, 0.0);
}

TEST_F(AtlasCoreTest, CycleExtrasZeroWhenNoToggles) {
  const auto& g = train_->gate_graphs[0];
  const SubmoduleStatic st = compute_submodule_static(train_->gate, g);
  // Build a trace with no transitions at all.
  sim::ToggleTrace quiet(train_->gate.num_nets(), 1);
  const CycleExtras ex = compute_cycle_extras(g, st, quiet, 0);
  EXPECT_FLOAT_EQ(ex.i_comb, 0.0f);
  EXPECT_FLOAT_EQ(ex.c_comb, 0.0f);
  EXPECT_FLOAT_EQ(ex.i_reg, 0.0f);
  // Physics floor is leakage (+ clock pins for registers).
  EXPECT_NEAR(comb_physics_uw(st, ex), st.leak_comb_uw, 1e-9);
  EXPECT_GT(reg_physics_uw(st, ex), st.leak_reg_uw);
}

TEST_F(AtlasCoreTest, EndToEndTrainPredictEvaluate) {
  PretrainConfig pcfg;
  pcfg.epochs = 3;
  pcfg.cycles_per_graph = 2;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);

  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 60;
  fcfg.cycle_stride = 2;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);

  const AtlasModel model(std::move(pre.encoder), std::move(models));
  const auto& wl = test_->workloads[0];
  const Prediction pred =
      model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  ASSERT_EQ(pred.num_cycles, 40);
  ASSERT_EQ(pred.num_submodules, test_->gate.submodules().size());

  const GroupMape atlas_m = evaluate_prediction(wl.golden, pred);
  const GroupMape base_m = evaluate_baseline(wl.golden, wl.gate_level);
  // Single-design training at tiny scale: demand sanity, not paper accuracy.
  EXPECT_LT(atlas_m.total, 60.0);
  EXPECT_DOUBLE_EQ(base_m.clock, 100.0);
  EXPECT_LT(atlas_m.clock, base_m.clock);
  // Predictions are nonnegative everywhere.
  for (int c = 0; c < pred.num_cycles; ++c) {
    EXPECT_GE(pred.at(c).comb, 0.0);
    EXPECT_GE(pred.at(c).clock, 0.0);
    EXPECT_GE(pred.at(c).reg, 0.0);
  }
}

TEST_F(AtlasCoreTest, ModelSerializationRoundTrip) {
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 20;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));

  const std::string path = ::testing::TempDir() + "/atlas_model_test.bin";
  model.save(path);
  const AtlasModel back = AtlasModel::load(path);
  EXPECT_EQ(back.encoder().dim(), model.encoder().dim());

  // A loaded model is the same model: every cycle and every sub-module row
  // must be bit-identical, not merely close — serving depends on artifacts
  // behaving interchangeably with the in-memory original.
  const auto& wl = test_->workloads[0];
  const Prediction a = model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  const Prediction b = back.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  ASSERT_EQ(a.num_cycles, b.num_cycles);
  ASSERT_EQ(a.num_submodules, b.num_submodules);
  for (int c = 0; c < a.num_cycles; ++c) {
    EXPECT_EQ(a.at(c).comb, b.at(c).comb);
    EXPECT_EQ(a.at(c).clock, b.at(c).clock);
    EXPECT_EQ(a.at(c).reg, b.at(c).reg);
  }
  ASSERT_EQ(a.submodule.size(), b.submodule.size());
  for (std::size_t i = 0; i < a.submodule.size(); ++i) {
    EXPECT_EQ(a.submodule[i].comb, b.submodule[i].comb);
    EXPECT_EQ(a.submodule[i].clock, b.submodule[i].clock);
    EXPECT_EQ(a.submodule[i].reg, b.submodule[i].reg);
  }
  std::filesystem::remove(path);
}

// encode_batch fills graph::kFeatureDim features per node and the encoder
// multiplies them by its in_dim x d input weight, so an artifact whose
// encoder reads another width must not load.
TEST(AtlasModelArtifact, EncoderInputWidthMustBeTheGraphFeatureWidth) {
  const auto artifact = [](std::size_t in_dim) {
    ml::SgFormer::Config cfg;
    cfg.in_dim = in_dim;
    cfg.dim = 16;
    GroupModels untrained;
    return AtlasModel(ml::SgFormer(cfg), std::move(untrained)).to_bytes();
  };
  EXPECT_EQ(AtlasModel::from_bytes(artifact(graph::kFeatureDim)).encoder().in_dim(),
            static_cast<std::size_t>(graph::kFeatureDim));
  EXPECT_THROW(AtlasModel::from_bytes(artifact(19)), util::SerializeError);
  // Trailing bytes after the last head are corruption too.
  EXPECT_THROW(AtlasModel::from_bytes(artifact(graph::kFeatureDim) + "x"),
               util::SerializeError);
}

TEST_F(AtlasCoreTest, TrainedArtifactByteIdenticalAcrossThreadCounts) {
  // Training honours the same contract as inference: pre-training plus
  // fine-tuning (whose embedding extraction runs encode_batch on the pool)
  // must write the same model bytes at any thread count.
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 20;
  fcfg.cycle_stride = 3;
  const auto train_bytes = [&](int threads) {
    util::set_global_threads(threads);
    PretrainResult pre = pretrain_encoder({train_}, pcfg);
    GroupModels models = finetune_models({train_, test_}, pre.encoder, fcfg);
    const AtlasModel model(std::move(pre.encoder), std::move(models));
    const std::string path = ::testing::TempDir() + "/atlas_threads_" +
                             std::to_string(threads) + "_" +
                             std::to_string(::getpid()) + ".bin";
    model.save(path);
    std::ifstream is(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    return bytes;
  };
  const std::string serial = train_bytes(1);
  const std::string pooled = train_bytes(4);
  util::set_global_threads(0);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(serial == pooled) << "model artifact differs between 1 and 4 "
                                   "threads (" << serial.size() << " vs "
                                << pooled.size() << " bytes)";
}

TEST_F(AtlasCoreTest, EncodeThenPredictFromEmbeddingsMatchesPredict) {
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 20;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));

  const auto& wl = test_->workloads[0];
  const Prediction direct =
      model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);

  // The split entry points the serving feature cache relies on: encode()
  // once, then reuse the embeddings for repeated head evaluation. encode()
  // must reproduce the forward_train reference byte for byte, and both head
  // evaluations must be bit-identical to the monolithic predict().
  const DesignEmbeddings emb =
      model.encode(test_->gate, test_->gate_graphs, wl.gate_trace);
  expect_same_embeddings(
      emb,
      reference_encode(model, test_->gate, test_->gate_graphs, wl.gate_trace),
      "encode vs reference");
  EXPECT_EQ(emb.num_cycles, direct.num_cycles);
  EXPECT_EQ(emb.graphs.size(), test_->gate_graphs.size());
  for (int round = 0; round < 2; ++round) {
    const Prediction split =
        model.predict_from_embeddings(test_->gate, test_->gate_graphs, emb);
    ASSERT_EQ(split.num_cycles, direct.num_cycles);
    ASSERT_EQ(split.num_submodules, direct.num_submodules);
    for (int c = 0; c < direct.num_cycles; ++c) {
      EXPECT_EQ(split.at(c).comb, direct.at(c).comb);
      EXPECT_EQ(split.at(c).clock, direct.at(c).clock);
      EXPECT_EQ(split.at(c).reg, direct.at(c).reg);
    }
    ASSERT_EQ(split.submodule.size(), direct.submodule.size());
    for (std::size_t i = 0; i < direct.submodule.size(); ++i) {
      EXPECT_EQ(split.submodule[i].comb, direct.submodule[i].comb);
      EXPECT_EQ(split.submodule[i].clock, direct.submodule[i].clock);
      EXPECT_EQ(split.submodule[i].reg, direct.submodule[i].reg);
    }
  }

  // Mismatched shapes are rejected, not silently mispredicted.
  DesignEmbeddings wrong = model.encode(test_->gate, test_->gate_graphs, wl.gate_trace);
  wrong.graphs.pop_back();
  EXPECT_THROW(model.predict_from_embeddings(test_->gate, test_->gate_graphs, wrong),
               std::invalid_argument);
}

TEST_F(AtlasCoreTest, EncodeBatchBitIdenticalToForwardReference) {
  // The serving dispatcher fuses a whole batch into one encode_batch call;
  // every (design, workload) item must come out bit-identical to the
  // per-cycle forward_train reference — at any thread count, any batch
  // composition, and with a recycled arena. Two distinct designs and two
  // workloads per design exercise mixed-shape batches.
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 10;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));

  struct Item {
    const DesignData* design;
    const sim::ToggleTrace* trace;
  };
  std::vector<Item> inputs;
  for (const DesignData* d : {test_, train_}) {
    for (const auto& wl : d->workloads) {
      inputs.push_back(Item{d, &wl.gate_trace});
      if (inputs.size() >= 4) break;
    }
  }
  ASSERT_GE(inputs.size(), 2u);

  std::vector<DesignEmbeddings> ref;
  for (const Item& it : inputs) {
    ref.push_back(reference_encode(model, it.design->gate,
                                    it.design->gate_graphs, *it.trace));
  }

  util::Arena arena;
  for (const int threads : {1, 4}) {
    util::set_global_threads(threads);
    // Full batch, then a permuted sub-batch: composition must not matter.
    std::vector<DesignEmbeddings> out(inputs.size());
    std::vector<AtlasModel::EncodeItem> items;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      items.push_back(AtlasModel::EncodeItem{
          &inputs[i].design->gate, &inputs[i].design->gate_graphs,
          inputs[i].trace, &out[i]});
    }
    model.encode_batch(items.data(), items.size(), arena);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expect_same_embeddings(out[i], ref[i], "item " + std::to_string(i));
    }

    arena.reset();  // recycled scratch must not change results
    const std::size_t last = inputs.size() - 1;
    DesignEmbeddings single;
    AtlasModel::EncodeItem one{&inputs[last].design->gate,
                               &inputs[last].design->gate_graphs,
                               inputs[last].trace, &single};
    model.encode_batch(&one, 1, arena);
    expect_same_embeddings(single, ref[last], "single");
    arena.reset();
  }
  util::set_global_threads(0);

  // The reference embeddings drive the heads to the same bits as
  // predict() — the end-to-end identity the serve tier pins.
  const Prediction direct = model.predict(
      inputs[0].design->gate, inputs[0].design->gate_graphs, *inputs[0].trace);
  util::Arena head_arena;
  const Prediction via_batch = model.predict_from_embeddings(
      inputs[0].design->gate, inputs[0].design->gate_graphs, ref[0],
      &head_arena);
  ASSERT_EQ(via_batch.num_cycles, direct.num_cycles);
  for (int c = 0; c < direct.num_cycles; ++c) {
    EXPECT_EQ(via_batch.at(c).comb, direct.at(c).comb);
    EXPECT_EQ(via_batch.at(c).clock, direct.at(c).clock);
    EXPECT_EQ(via_batch.at(c).reg, direct.at(c).reg);
  }
}

/// Number of (sub-module, cycle) pairs whose toggle channel equals an
/// earlier cycle's on the same sub-module — brute force, as the oracle for
/// encode_batch's cycle memo.
std::uint64_t expected_repeats(const std::vector<graph::SubmoduleGraph>& graphs,
                               const sim::ToggleTrace& trace) {
  std::uint64_t repeats = 0;
  for (const graph::SubmoduleGraph& g : graphs) {
    std::vector<std::vector<int>> seen;
    for (int c = 0; c < trace.num_cycles(); ++c) {
      std::vector<int> channel;
      for (const netlist::NetId net : g.out_net) {
        channel.push_back(net == netlist::kNoNet ? 0 : trace.transitions(c, net));
      }
      if (std::find(seen.begin(), seen.end(), channel) != seen.end()) {
        ++repeats;
      } else {
        seen.push_back(std::move(channel));
      }
    }
  }
  return repeats;
}

TEST_F(AtlasCoreTest, EncodeBatchMemoizesRepeatedCyclesBitIdentically) {
  // encode_batch encodes each distinct toggle channel of a sub-module once
  // and copies its embedding to the cycles that repeat it. Every row must
  // be byte-identical to the forward_train reference, and the memoized-segment
  // counter must count exactly the repeats.
  ml::SgFormer::Config ecfg;
  ecfg.in_dim = graph::kFeatureDim;
  ecfg.dim = 16;
  const AtlasModel model(ml::SgFormer(ecfg),
                         GroupModels{ml::GbdtRegressor(), ml::GbdtRegressor(),
                                     ml::GbdtRegressor()});
  const sim::ToggleTrace& real = test_->workloads[0].gate_trace;
  const std::size_t nets = real.num_nets();
  ASSERT_GE(real.num_cycles(), 10);

  // Quiet cycles (q) and copies of real cycles 5 and 9, each repeated.
  const std::vector<int> pattern = {-1, 5, -1, 5, 9, -1, 9, 5};
  sim::ToggleTrace repeated(nets, static_cast<int>(pattern.size()));
  for (std::size_t c = 0; c < pattern.size(); ++c) {
    if (pattern[c] < 0) continue;
    for (netlist::NetId n = 0; n < nets; ++n) {
      repeated.set(static_cast<int>(c), n, real.value(pattern[c], n),
                   real.transitions(pattern[c], n));
    }
  }
  // Cycle c gives every net c transitions: no sub-module repeats a cycle.
  sim::ToggleTrace distinct(nets, 6);
  for (int c = 0; c < distinct.num_cycles(); ++c) {
    for (netlist::NetId n = 0; n < nets; ++n) distinct.set(c, n, false, c);
  }
  const std::uint64_t repeated_expect =
      expected_repeats(test_->gate_graphs, repeated);
  ASSERT_GE(repeated_expect, 5 * test_->gate_graphs.size());
  ASSERT_EQ(expected_repeats(test_->gate_graphs, distinct), 0u);
  const sim::ToggleTrace& other = train_->workloads[0].gate_trace;

  struct Input {
    const DesignData* design;
    const sim::ToggleTrace* trace;
  };
  const std::vector<Input> inputs = {
      {test_, &repeated}, {test_, &distinct}, {train_, &other}};
  std::vector<DesignEmbeddings> ref;
  std::vector<std::uint64_t> repeats;
  for (const Input& in : inputs) {
    ref.push_back(reference_encode(model, in.design->gate,
                                    in.design->gate_graphs, *in.trace));
    repeats.push_back(expected_repeats(in.design->gate_graphs, *in.trace));
  }

  const obs::Counter& memoized = obs::Registry::global().counter(
      "atlas_model_encode_segments_memoized_total");
  util::Arena arena;
  for (const int threads : {1, 4}) {
    util::set_global_threads(threads);
    const std::string at = " threads=" + std::to_string(threads);
    // Each trace alone...
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      DesignEmbeddings out;
      const AtlasModel::EncodeItem item{&inputs[i].design->gate,
                                        &inputs[i].design->gate_graphs,
                                        inputs[i].trace, &out};
      const std::uint64_t before = memoized.value();
      model.encode_batch(&item, 1, arena);
      EXPECT_EQ(memoized.value() - before, repeats[i]) << "item " << i << at;
      expect_same_embeddings(out, ref[i], "item " + std::to_string(i) + at);
    }
    // ...and all three in one batch.
    std::vector<DesignEmbeddings> outs(inputs.size());
    std::vector<AtlasModel::EncodeItem> items;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      items.push_back(AtlasModel::EncodeItem{&inputs[i].design->gate,
                                             &inputs[i].design->gate_graphs,
                                             inputs[i].trace, &outs[i]});
    }
    const std::uint64_t before = memoized.value();
    model.encode_batch(items.data(), items.size(), arena);
    EXPECT_EQ(memoized.value() - before, repeats[0] + repeats[1] + repeats[2])
        << at;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expect_same_embeddings(outs[i], ref[i],
                             "batch item " + std::to_string(i) + at);
    }
  }
  util::set_global_threads(0);
}

TEST_F(AtlasCoreTest, MemoryModelAccurate) {
  MemoryPowerModel mem;
  mem.fit({train_});
  EXPECT_TRUE(mem.fitted());
  // Evaluate on the unseen design.
  const auto& wl = test_->workloads[0];
  const std::vector<double> pred = mem.predict(test_->gate, wl.gate_trace);
  const std::vector<double> label =
      power::series_of(wl.golden, power::Series::kMemory);
  const double err = power::mape(label, pred);
  // Paper Sec. VI-B: ~0.5% error; the macro is unchanged by layout, so even
  // a scale-fitted model lands within a few percent here.
  EXPECT_LT(err, 6.0);
}

TEST_F(AtlasCoreTest, MetricsHelpers) {
  EXPECT_NEAR(correlation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(correlation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
  EXPECT_THROW(correlation({1}, {1, 2}), std::invalid_argument);
  const GroupMape m{1, 2, 3, 4, 5};
  const std::string s = format_group_mape(m);
  EXPECT_NE(s.find("total=5.00%"), std::string::npos);
}

TEST_F(AtlasCoreTest, StructuralSplitterCoversParsedNetlist) {
  // Strip sub-module tags by writing Verilog without attributes: simulate a
  // third-party netlist, then re-split structurally.
  netlist::Netlist stripped = test_->gate;
  for (netlist::CellInstId id = 0; id < stripped.num_cells(); ++id) {
    stripped.set_cell_submodule(id, netlist::kNoSubmodule);
  }
  const int created = assign_submodules_by_structure(stripped, 120);
  EXPECT_GT(created, 3);
  for (netlist::CellInstId id = 0; id < stripped.num_cells(); ++id) {
    EXPECT_NE(stripped.cell(id).submodule, netlist::kNoSubmodule);
  }
  // Graphs build fine on the auto-partition.
  const auto graphs = graph::build_submodule_graphs(stripped);
  std::size_t covered = 0;
  for (const auto& g : graphs) covered += g.num_nodes();
  EXPECT_EQ(covered, stripped.num_cells());
}

TEST_F(AtlasCoreTest, PredictionComponentRollup) {
  PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  PretrainResult pre = pretrain_encoder({train_}, pcfg);
  FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 20;
  fcfg.cycle_stride = 4;
  GroupModels models = finetune_models({train_}, pre.encoder, fcfg);
  const AtlasModel model(std::move(pre.encoder), std::move(models));
  const auto& wl = test_->workloads[0];
  const Prediction pred =
      model.predict(test_->gate, test_->gate_graphs, wl.gate_trace);
  const auto comps = pred.component_average(test_->gate);
  ASSERT_EQ(comps.size(), test_->gate.components().size());
  // Component totals sum to the average design total.
  double total = 0.0;
  for (const auto& c : comps) total += c.total();
  double design_avg = 0.0;
  for (int c = 0; c < pred.num_cycles; ++c) design_avg += pred.at(c).total();
  design_avg /= pred.num_cycles;
  EXPECT_NEAR(total, design_avg, design_avg * 1e-6);
}

TEST_F(AtlasCoreTest, LogicConesOneConePerRegister) {
  const auto cones = extract_logic_cones(test_->gate);
  std::size_t regs = 0;
  for (netlist::CellInstId id = 0; id < test_->gate.num_cells(); ++id) {
    regs += liberty::is_sequential(test_->gate.lib_cell(id).func);
  }
  EXPECT_EQ(cones.size(), regs);
  for (const auto& c : cones) {
    ASSERT_FALSE(c.cells.empty());
    EXPECT_EQ(c.cells.front(), c.root);
    EXPECT_TRUE(liberty::is_sequential(test_->gate.lib_cell(c.root).func));
    // Cone members other than the root are combinational.
    for (std::size_t i = 1; i < c.cells.size(); ++i) {
      EXPECT_TRUE(liberty::is_combinational(test_->gate.lib_cell(c.cells[i]).func));
    }
  }
}

TEST_F(AtlasCoreTest, LogicConesOverlapSubstantially) {
  // The paper's Sec. III-A claim: cones overlap, so cone-power sums
  // over-count true power, while the sub-module partition is exact.
  const auto cones = extract_logic_cones(test_->gate);
  const double overlap = cone_overlap_factor(cones);
  EXPECT_GT(overlap, 1.3) << "re-convergent fan-out must create overlap";
  const auto& wl = test_->workloads[0];
  const double overcount =
      cone_power_overcount(test_->gate, cones, wl.gate_trace);
  EXPECT_GT(overcount, 1.1);
}

TEST_F(AtlasCoreTest, LogicConesStopAtStateBoundaries) {
  const auto cones = extract_logic_cones(test_->gate);
  for (const auto& c : cones) {
    for (std::size_t i = 1; i < c.cells.size(); ++i) {
      EXPECT_FALSE(liberty::is_macro(test_->gate.lib_cell(c.cells[i]).func));
    }
  }
}

}  // namespace
}  // namespace atlas::core
