// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// the cycle simulator, the power analyzer, the SGFormer encoder forward pass
// (the dominant cost of ATLAS inference) and GBDT prediction. These are the
// numbers to watch when optimizing the Table IV "Infer" column.
#include <benchmark/benchmark.h>

#include <cmath>

#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "liberty/library.h"
#include "ml/gbdt.h"
#include "ml/sgformer.h"
#include "netlist/verilog_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/power_analyzer.h"
#include "sim/simulator.h"
#include "transform/rewrite.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace {

using namespace atlas;

const liberty::Library& lib() {
  static const liberty::Library l = liberty::make_default_library();
  return l;
}

const netlist::Netlist& design() {
  static const netlist::Netlist nl =
      designgen::generate_design(designgen::paper_design_spec(2, 0.004), lib());
  return nl;
}

void BM_CycleSimulator(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  const int cycles = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::CycleSimulator sim(nl);
    sim::StimulusGenerator stim(nl, sim::make_w1());
    benchmark::DoNotOptimize(sim.run(stim, cycles));
  }
  state.SetItemsProcessed(state.iterations() * cycles *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_CycleSimulator)->Arg(50)->Arg(300);

void BM_PowerAnalysis(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  sim::CycleSimulator sim(nl);
  sim::StimulusGenerator stim(nl, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::analyze_power(nl, trace));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_PowerAnalysis)->Arg(300);

// Thread-scaling of the per-cycle power loop (the issue's headline hot
// path). Arg = thread count; compare against Arg(1) for the speedup — on
// multi-core hardware 4 threads should land >= 2x (the loop is
// embarrassingly parallel over cycles). Outputs are bit-identical at every
// thread count; see power_test ThreadCountEquivalence.
void BM_PowerAnalysisThreads(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  sim::CycleSimulator sim(nl);
  sim::StimulusGenerator stim(nl, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, 300);
  util::set_global_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::analyze_power(nl, trace));
  }
  util::set_global_threads(0);
  state.SetItemsProcessed(state.iterations() * 300 *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_PowerAnalysisThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Arg(atlas::util::hardware_concurrency());

// Thread-scaling of the full workload simulation + toggle recording.
void BM_CycleSimulatorThreads(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  util::set_global_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sim::CycleSimulator sim(nl);
    sim::StimulusGenerator stim(nl, sim::make_w1());
    benchmark::DoNotOptimize(sim.run(stim, 300));
  }
  util::set_global_threads(0);
  state.SetItemsProcessed(state.iterations() * 300 *
                          static_cast<long>(nl.num_cells()));
}
BENCHMARK(BM_CycleSimulatorThreads)->Arg(1)->Arg(4);

void BM_LogicRewrite(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform::apply_rewrites(nl, {}));
  }
}
BENCHMARK(BM_LogicRewrite);

// One pre-training step of the encoder on one graph: forward_train() then
// backward() of a graph-embedding gradient, as pretrain_encoder runs it per
// sample, with the adjacency prebuilt and the Activations reused. Synthetic
// chain graph of the requested size with ATLAS feature width, dim 32.
void BM_SgFormerTrainStep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  ml::SgFormer::Config cfg;
  cfg.in_dim = graph::kFeatureDim;
  cfg.dim = 32;
  ml::SgFormer enc(cfg);
  const ml::SgFormer::NormAdjacency adj =
      ml::SgFormer::build_norm_adjacency(n, &edges);
  ml::SgFormer::Activations act;
  act.x = ml::Matrix::randn(n, graph::kFeatureDim, rng, 1.0f);
  const ml::Matrix d_graph(1, cfg.dim, 1.0f);
  std::vector<float> graph_emb(cfg.dim);
  for (auto _ : state) {
    enc.forward_train(adj, act, graph_emb.data());
    enc.backward(act, ml::Matrix(), d_graph);
    benchmark::DoNotOptimize(graph_emb.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_SgFormerTrainStep)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// The serving encoder: forward_segment() on one (sub-module, cycle)
// segment with its prebuilt adjacency and reused scratch, as encode_batch
// runs it. The segment is the sub-module graph of C2 at scale 0.0025 (the
// servebench designs) closest to the mean of ~74 nodes, with its static
// features. Arg = encoder dim (16 is the serving model's).
void BM_SgFormerForwardSegment(benchmark::State& state) {
  static const std::vector<graph::SubmoduleGraph> graphs =
      graph::build_submodule_graphs(designgen::generate_design(
          designgen::paper_design_spec(2, 0.0025), lib()));
  const graph::SubmoduleGraph* seg = &graphs.front();
  for (const graph::SubmoduleGraph& g : graphs) {
    const auto gap = [](std::size_t n) { return n > 74 ? n - 74 : 74 - n; };
    if (gap(g.num_nodes()) < gap(seg->num_nodes())) seg = &g;
  }
  const std::size_t n = seg->num_nodes();
  ml::SgFormer::Config cfg;
  cfg.in_dim = graph::kFeatureDim;
  cfg.dim = static_cast<std::size_t>(state.range(0));
  const ml::SgFormer enc(cfg);
  const ml::SgFormer::NormAdjacency adj =
      ml::SgFormer::build_norm_adjacency(n, &seg->edges);
  std::vector<float> scratch(enc.segment_scratch_floats(n));
  std::vector<float> emb(cfg.dim);
  for (auto _ : state) {
    enc.forward_segment(n, adj, seg->static_features.data(), scratch.data(),
                        emb.data());
    benchmark::DoNotOptimize(emb.data());
    benchmark::ClobberMemory();
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_SgFormerForwardSegment)->Arg(16)->Arg(32);

void BM_GbdtPredict(benchmark::State& state) {
  util::Rng rng(7);
  const std::size_t n = 2000;
  ml::Matrix x(n, 35);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 35; ++j) x.at(i, j) = static_cast<float>(rng.next_double());
    y[i] = x.at(i, 0) * 3 + x.at(i, 1);
  }
  ml::GbdtConfig cfg;
  cfg.n_trees = 300;
  ml::GbdtRegressor model(cfg);
  model.fit(x, y);
  for (auto _ : state) {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc += model.predict_row(x.row(i));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GbdtPredict);

// The batched serving path: predict_from_embeddings runs each head's
// predict_rows over all of a request's feature rows at once. Shape of a
// servebench warm-repeat request: 20 trees, 500 varied rows of 19 features.
void BM_GbdtPredictRows(benchmark::State& state) {
  constexpr std::size_t kFeatures = 19;
  constexpr std::size_t kTrainRows = 2000;
  constexpr std::size_t kRows = 500;
  util::Rng rng(11);
  ml::Matrix x(kTrainRows, kFeatures);
  std::vector<double> y(kTrainRows);
  for (std::size_t i = 0; i < kTrainRows; ++i) {
    for (std::size_t j = 0; j < kFeatures; ++j) {
      x.at(i, j) = static_cast<float>(rng.next_double());
    }
    y[i] = std::sin(6 * x.at(i, 0)) + x.at(i, 1) * x.at(i, 2) - x.at(i, 3) +
           0.5 * x.at(i, 4 + i % 7);
  }
  ml::GbdtConfig cfg;
  cfg.n_trees = 20;
  ml::GbdtRegressor model(cfg);
  model.fit(x, y);
  std::vector<double> out(kRows);
  for (auto _ : state) {
    model.predict_rows(x.row(0), kRows, kFeatures, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kRows));
}
BENCHMARK(BM_GbdtPredictRows);

void BM_SubmoduleGraphBuild(benchmark::State& state) {
  const netlist::Netlist& nl = design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_submodule_graphs(nl));
  }
}
BENCHMARK(BM_SubmoduleGraphBuild);

// A servebench new-designs sized netlist text (C2 @ 0.0025, ~120 KB, 879
// cells).
const std::string& c2_text() {
  static const std::string text = netlist::write_verilog(
      designgen::generate_design(designgen::paper_design_spec(2, 0.0025), lib()));
  return text;
}

// The parse every never-seen design pays before graph build.
void BM_ParseVerilog(benchmark::State& state) {
  const std::string& text = c2_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::parse_verilog(text, lib()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long>(text.size()));
}
BENCHMARK(BM_ParseVerilog);

// The admission hash of a text Predict: FNV-1a (arg 0, the design key, paid
// on a text's first sight) against keyed SipHash-1-3 (arg 1, the memo
// lookup every repeat pays instead).
void BM_AdmissionHash(benchmark::State& state) {
  const std::string& text = c2_text();
  const bool sip = state.range(0) == 1;
  state.SetLabel(sip ? "siphash13" : "fnv1a64");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sip ? util::siphash13(text.data(), text.size(), 0x0123456789abcdefULL,
                              0xfedcba9876543210ULL)
            : util::fnv1a64(text));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<long>(text.size()));
}
BENCHMARK(BM_AdmissionHash)->Arg(0)->Arg(1);

// --- Observability overhead (src/obs/) -----------------------------------
//
// BM_ObsSpanDisabled is the number that licenses leaving ObsSpan in every
// flow phase and pool batch: the disabled path is one relaxed load plus a
// branch, targeted under 5 ns. The enabled path pays two clock reads and a
// short critical section — fine for coarse spans, never per-cell loops.

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Trace::disable();
  for (auto _ : state) {
    obs::ObsSpan span("bench", "disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Trace::enable();
  for (auto _ : state) {
    obs::ObsSpan span("bench", "enabled");
    benchmark::DoNotOptimize(&span);
  }
  obs::Trace::disable();
  obs::Trace::clear();
}
BENCHMARK(BM_ObsSpanEnabled);

// The tier every span site in the serving path pays while a request carries
// an unsampled trace context: the tracer is on, but the span only extends
// the id chain (no clock reads, no ring push).
void BM_ObsSpanUnsampled(benchmark::State& state) {
  obs::Trace::enable();
  {
    obs::TraceContextScope scope(obs::make_root_context(/*sampled=*/false));
    for (auto _ : state) {
      obs::ObsSpan span("bench", "unsampled");
      benchmark::DoNotOptimize(&span);
    }
  }
  obs::Trace::disable();
  obs::Trace::clear();
}
BENCHMARK(BM_ObsSpanUnsampled);

// Contended counter increment: all threads hammer one cache line. This is
// the worst case; real instrumentation points increment far less often
// than once per ~20 ns, so even the 8-thread number is invisible at the
// batch/request granularity the pipeline uses.
void BM_ObsCounterInc(benchmark::State& state) {
  static obs::Counter* c =
      &obs::Registry::global().counter("atlas_bench_incs_total");
  for (auto _ : state) {
    c->inc();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc)->Threads(1)->Threads(4)->Threads(8);

}  // namespace

BENCHMARK_MAIN();
