// Golden-file regression test for the fig5 per-cycle power pipeline.
//
// The committed fig5_C2_W1.csv / fig5_C4_W1.csv (repo root) were produced
// by `build/bench/bench_fig5` at its default flags (scale=0.01,
// cycles=300). Their label_* columns are the golden power analysis
// (post-layout netlist + extracted caps) and their gate_* columns are the
// Gate-Level-PTPX baseline — both fully deterministic given the seeded
// design generator. This test rebuilds exactly that pipeline for C2 and C4
// and compares every deterministic column of all 300 cycles against the
// committed files, so a perf PR that silently changes numerics fails here.
//
// The CSVs' atlas_* columns come from bench_fig5's trained model and are
// not compared here; FusedBatchedPredictionBitIdenticalOnGoldenC2 pins the
// model's predictions instead, by hash, for a small model trained in the
// test and run on the same golden C2 inputs.
//
// Regenerating after an *intentional* numerics change:
//   cmake --build build -j && (cd <repo-root> && ./build/bench/bench_fig5)
// then commit the rewritten fig5_C2_W1.csv / fig5_C4_W1.csv.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/finetune.h"
#include "atlas/model.h"
#include "atlas/preprocess.h"
#include "atlas/pretrain.h"
#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "layout/layout_flow.h"
#include "liberty/library.h"
#include "power/power_analyzer.h"
#include "sim/simulator.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/parallel.h"

#ifndef ATLAS_SOURCE_DIR
#error "ATLAS_SOURCE_DIR must point at the repository root"
#endif

namespace atlas {
namespace {

constexpr int kCycles = 300;     // bench default: --cycles 300
constexpr double kScale = 0.01;  // bench default: --scale 0.01

struct CsvRow {
  // Column order in the committed files (see bench_fig5.cpp).
  double label_comb, label_clock, label_reg, label_total;
  double atlas_comb, atlas_clock, atlas_reg, atlas_total;
  double gate_comb, gate_clock, gate_reg, gate_total;
};

std::vector<CsvRow> load_golden_csv(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::string line;
  std::getline(in, line);  // header
  EXPECT_NE(line.find("label_comb"), std::string::npos);
  std::vector<CsvRow> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string field;
    std::vector<double> v;
    while (std::getline(ls, field, ',')) v.push_back(std::stod(field));
    EXPECT_EQ(v.size(), 13u) << "malformed row in " << path << ": " << line;
    rows.push_back(CsvRow{v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9],
                          v[10], v[11], v[12]});
  }
  return rows;
}

/// FNV-1a over the comb/clock/reg doubles of every (cycle, sub-module)
/// prediction, in cycle-major order.
std::uint64_t prediction_hash(const core::Prediction& p) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const power::GroupPower& g : p.submodule) {
    for (const double v : {g.comb, g.clock, g.reg}) h = util::fnv1a64(&v, sizeof v, h);
  }
  return h;
}

/// The CSV stores %.3f-rounded values; allow rounding plus a whisker of
/// relative slack for compiler/libm variation.
void expect_close(double golden, double computed, const char* col, int cycle) {
  const double tol = 2e-3 + 5e-7 * std::fabs(golden);
  EXPECT_NEAR(golden, computed, tol) << col << " at cycle " << cycle;
}

void check_design(int design_index, const std::string& csv_name) {
  const liberty::Library lib = liberty::make_default_library();
  const netlist::Netlist gate = designgen::generate_design(
      designgen::paper_design_spec(design_index, kScale), lib);
  const layout::LayoutResult post = layout::run_layout(gate);

  // Golden labels: W1 on the post-layout netlist with extracted caps.
  sim::CycleSimulator sim_post(post.netlist);
  sim::StimulusGenerator stim_post(post.netlist, sim::make_w1());
  const power::PowerResult golden =
      power::analyze_power(post.netlist, sim_post.run(stim_post, kCycles));

  // Gate-Level PTPX baseline: same engine on the gate-level netlist.
  sim::CycleSimulator sim_gate(gate);
  sim::StimulusGenerator stim_gate(gate, sim::make_w1());
  const power::PowerResult baseline =
      power::analyze_power(gate, sim_gate.run(stim_gate, kCycles));

  const std::vector<CsvRow> rows =
      load_golden_csv(std::string(ATLAS_SOURCE_DIR) + "/" + csv_name);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kCycles)) << csv_name;
  for (int c = 0; c < kCycles; ++c) {
    const CsvRow& r = rows[static_cast<std::size_t>(c)];
    const power::GroupPower& lab = golden.design(c);
    const power::GroupPower& gl = baseline.design(c);
    expect_close(r.label_comb, lab.comb, "label_comb", c);
    expect_close(r.label_clock, lab.clock, "label_clock", c);
    expect_close(r.label_reg, lab.reg, "label_reg", c);
    expect_close(r.label_total, lab.total_no_memory(), "label_total", c);
    expect_close(r.gate_comb, gl.comb, "gate_comb", c);
    expect_close(r.gate_clock, gl.clock, "gate_clock", c);
    expect_close(r.gate_reg, gl.reg, "gate_reg", c);
    expect_close(r.gate_total, gl.total_no_memory(), "gate_total", c);
    if (::testing::Test::HasFailure()) {
      FAIL() << "golden mismatch in " << csv_name << " — if intentional, "
             << "regenerate with ./build/bench/bench_fig5 (run from the repo "
             << "root) and commit the new CSVs";
    }
  }
}

TEST(GoldenFig5Test, C2PerCyclePowerMatchesCommittedCsv) {
  check_design(2, "fig5_C2_W1.csv");
}

TEST(GoldenFig5Test, C4PerCyclePowerMatchesCommittedCsv) {
  check_design(4, "fig5_C4_W1.csv");
}

/// Pins the model's own predictions on the exact golden fig5 pipeline:
/// design C2 at the bench's default scale under W1 over 300 cycles. The
/// hash covers training too — fine-tuning extracts its rows with the same
/// encode_batch as inference — so any change to the encoder's arithmetic
/// (loop order, zero-skip, contracted multiply-adds) or to the training-row
/// extraction moves it. predict() itself is encode_batch +
/// predict_from_embeddings, so the loop below pins the serving
/// dispatcher's hot path at 1 and 8 threads against the same predictions:
/// a thread-count dependence fails alongside the golden columns instead of
/// only in small synthetic tests.
TEST(GoldenFig5Test, FusedBatchedPredictionBitIdenticalOnGoldenC2) {
  struct ThreadCountGuard {
    ~ThreadCountGuard() { util::set_global_threads(0); }
  } guard;

  // A small trained model (same recipe as the atlas unit suite) — the test
  // pins exact predictions and thread-count identity, not their quality.
  const liberty::Library lib = liberty::make_default_library();
  core::PreprocessConfig pcfg_data;
  pcfg_data.cycles = 40;
  const core::DesignData train = core::prepare_design(
      designgen::paper_design_spec(1, 0.0025), lib, pcfg_data);
  core::PretrainConfig pcfg;
  pcfg.epochs = 1;
  pcfg.cycles_per_graph = 1;
  pcfg.dim = 16;
  core::PretrainResult pre = core::pretrain_encoder({&train}, pcfg);
  core::FinetuneConfig fcfg;
  fcfg.gbdt.n_trees = 10;
  fcfg.cycle_stride = 4;
  core::GroupModels models = core::finetune_models({&train}, pre.encoder, fcfg);
  const core::AtlasModel model(std::move(pre.encoder), std::move(models));

  // The golden pipeline's gate-level inputs: C2 at bench defaults, W1.
  const netlist::Netlist gate = designgen::generate_design(
      designgen::paper_design_spec(2, kScale), lib);
  const std::vector<graph::SubmoduleGraph> graphs =
      graph::build_submodule_graphs(gate);
  sim::CycleSimulator sim_gate(gate);
  sim::StimulusGenerator stim_gate(gate, sim::make_w1());
  const sim::ToggleTrace trace = sim_gate.run(stim_gate, kCycles);

  const core::Prediction ref = model.predict(gate, graphs, trace);
  ASSERT_EQ(ref.num_cycles, kCycles);
  ASSERT_EQ(ref.submodule.size(), ref.num_submodules * kCycles);
  EXPECT_EQ(util::hash_hex(prediction_hash(ref)), "120ee048e2dfe3ce")
      << "ATLAS predictions changed; if intentional, update the pinned hash";

  for (const unsigned threads : {1u, 8u}) {
    util::set_global_threads(threads);
    core::DesignEmbeddings emb;
    core::AtlasModel::EncodeItem item;
    item.gate = &gate;
    item.graphs = &graphs;
    item.trace = &trace;
    item.out = &emb;
    util::Arena arena;
    model.encode_batch(&item, 1, arena);
    const core::Prediction fused =
        model.predict_from_embeddings(gate, graphs, emb, &arena);
    ASSERT_EQ(fused.num_cycles, ref.num_cycles);
    ASSERT_EQ(fused.num_submodules, ref.num_submodules);
    for (int c = 0; c < ref.num_cycles; ++c) {
      const power::GroupPower& a = ref.at(c);
      const power::GroupPower& b = fused.at(c);
      ASSERT_EQ(a.comb, b.comb) << "threads=" << threads << " cycle=" << c;
      ASSERT_EQ(a.clock, b.clock) << "threads=" << threads << " cycle=" << c;
      ASSERT_EQ(a.reg, b.reg) << "threads=" << threads << " cycle=" << c;
    }
  }
}

}  // namespace
}  // namespace atlas
