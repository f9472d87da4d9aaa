#include "atlas/model.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace atlas::core {

using graph::SubmoduleGraph;
using ml::Matrix;

namespace {

struct EncodeCounters {
  obs::Counter& encodes;   // designs encoded (encode_batch items)
  obs::Counter& segments;  // (sub-module, cycle) embeddings produced
  obs::Counter& memoized;  // ... of which copied from an earlier cycle
};

EncodeCounters& encode_counters() {
  obs::Registry& reg = obs::Registry::global();
  static EncodeCounters* c = new EncodeCounters{
      reg.counter("atlas_model_encodes_total"),
      reg.counter("atlas_model_encode_segments_total"),
      reg.counter("atlas_model_encode_segments_memoized_total")};
  return *c;
}

// Per-thread scratch for encode_batch's segment tasks (feature rows plus
// the encoder's intermediates). It grows to the largest segment its thread
// has encoded and is kept, so steady-state encoding allocates nothing.
thread_local std::vector<float> tl_segment_scratch;

// Representative cycle of every cycle of `g` (arena-allocated): rep[c] == c
// for the first cycle with its toggle channel, otherwise the earlier cycle
// it repeats. Open addressing over the channel hashes; a hit counts only
// after an exact channel compare, so a hash collision can never merge two
// different cycles.
int* memoize_cycles(const SubmoduleGraph& g, const sim::ToggleTrace& trace,
                    util::Arena& arena) {
  const int cycles = trace.num_cycles();
  std::size_t slots = 2;  // a power of two, at least twice the cycles
  while (slots < 2 * static_cast<std::size_t>(cycles)) slots *= 2;
  int* rep = arena.alloc_array<int>(static_cast<std::size_t>(cycles));
  std::uint64_t* hashes =
      arena.alloc_array<std::uint64_t>(static_cast<std::size_t>(cycles));
  int* table = arena.alloc_array<int>(slots);
  std::fill(table, table + slots, -1);
  for (int c = 0; c < cycles; ++c) {
    const std::uint64_t h = graph::toggle_channel_hash(g, trace, c);
    hashes[c] = h;
    rep[c] = c;
    std::size_t s = h & (slots - 1);
    for (; table[s] >= 0; s = (s + 1) & (slots - 1)) {
      const int prev = table[s];
      if (hashes[prev] == h && graph::same_toggle_channel(g, trace, prev, c)) {
        rep[c] = prev;
        break;
      }
    }
    if (rep[c] == c) table[s] = c;
  }
  return rep;
}

}  // namespace

AtlasModel::AtlasModel(ml::SgFormer encoder, GroupModels models)
    : encoder_(std::move(encoder)), models_(std::move(models)) {}

std::vector<power::GroupPower> Prediction::component_average(
    const netlist::Netlist& gate) const {
  std::vector<power::GroupPower> avg(gate.components().size());
  if (num_cycles == 0) return avg;
  for (int c = 0; c < num_cycles; ++c) {
    for (std::size_t sm = 0; sm < num_submodules; ++sm) {
      const int comp = gate.submodules()[sm].component;
      if (comp < 0) continue;
      avg[static_cast<std::size_t>(comp)] +=
          at(c, static_cast<netlist::SubmoduleId>(sm));
    }
  }
  for (power::GroupPower& g : avg) {
    const double inv = 1.0 / num_cycles;
    g.comb *= inv;
    g.reg *= inv;
    g.clock *= inv;
    g.memory *= inv;
  }
  return avg;
}

Prediction AtlasModel::predict(const netlist::Netlist& gate,
                               const std::vector<SubmoduleGraph>& graphs,
                               const sim::ToggleTrace& gate_trace) const {
  return predict_from_embeddings(gate, graphs,
                                 encode(gate, graphs, gate_trace));
}

DesignEmbeddings AtlasModel::encode(
    const netlist::Netlist& gate, const std::vector<SubmoduleGraph>& graphs,
    const sim::ToggleTrace& gate_trace) const {
  DesignEmbeddings emb;
  util::Arena arena;
  const EncodeItem item{&gate, &graphs, &gate_trace, &emb};
  encode_batch(&item, 1, arena);
  return emb;
}

void AtlasModel::encode_batch(const EncodeItem* items, std::size_t n,
                              util::Arena& arena) const {
  obs::ObsSpan span("model", "encode_batch");
  encode_counters().encodes.inc(n);

  const std::size_t d = encoder_.dim();
  const util::Arena::Marker marker = arena.mark();

  // Per-graph setup: the cycle memo here (the arena is single-threaded),
  // then static context, extras, the output matrix and the shared
  // normalized adjacency (cycle-invariant, built once per graph instead of
  // once per forward) in parallel. All independent across graphs.
  struct GraphRef {
    const netlist::Netlist* gate = nullptr;
    const SubmoduleGraph* g = nullptr;
    const sim::ToggleTrace* trace = nullptr;
    DesignEmbeddings::PerGraph* pg = nullptr;
    ml::SgFormer::NormAdjacency adj;
    const int* rep = nullptr;  // [cycle] -> representative cycle
  };
  std::vector<GraphRef> grefs;
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const EncodeItem& it = items[i];
    DesignEmbeddings& out = *it.out;
    out.num_cycles = it.trace->num_cycles();
    out.graphs.assign(it.graphs->size(), {});
    for (std::size_t gi = 0; gi < it.graphs->size(); ++gi) {
      GraphRef r;
      r.gate = it.gate;
      r.g = &(*it.graphs)[gi];
      r.trace = it.trace;
      r.pg = &out.graphs[gi];
      r.rep = memoize_cycles(*r.g, *r.trace, arena);
      grefs.push_back(std::move(r));
      total += static_cast<std::size_t>(out.num_cycles);
    }
  }
  util::parallel_for(grefs.size(), 1, [&](std::size_t i) {
    GraphRef& r = grefs[i];
    DesignEmbeddings::PerGraph& pg = *r.pg;
    pg.st = compute_submodule_static(*r.gate, *r.g);
    const int cycles = r.trace->num_cycles();
    pg.emb = Matrix(static_cast<std::size_t>(cycles), d);
    pg.extras.resize(static_cast<std::size_t>(cycles));
    for (int c = 0; c < cycles; ++c) {
      pg.extras[static_cast<std::size_t>(c)] =
          compute_cycle_extras(*r.g, pg.st, *r.trace, c);
    }
    r.adj = ml::SgFormer::build_norm_adjacency(r.g->num_nodes(), &r.g->edges);
  });

  // One pool task per distinct (graph, cycle) segment: feature fill and the
  // whole encoder run in the executing thread's scratch and write straight
  // into the segment's embedding row. Segments share nothing, so the
  // result does not depend on the thread count or the batch composition.
  struct Seg {
    const GraphRef* ref = nullptr;
    int cycle = 0;
  };
  Seg* segs = arena.alloc_array<Seg>(total);
  std::size_t distinct = 0;
  for (const GraphRef& r : grefs) {
    const int cycles = r.trace->num_cycles();
    for (int c = 0; c < cycles; ++c) {
      if (r.rep[c] == c) segs[distinct++] = Seg{&r, c};
    }
  }
  util::parallel_for(distinct, 1, [&](std::size_t i) {
    const Seg& s = segs[i];
    const std::size_t nodes = s.ref->g->num_nodes();
    const std::size_t feat = nodes * static_cast<std::size_t>(graph::kFeatureDim);
    const std::size_t need = feat + encoder_.segment_scratch_floats(nodes);
    if (tl_segment_scratch.size() < need) tl_segment_scratch.resize(need);
    float* scratch = tl_segment_scratch.data();
    graph::fill_cycle_features(*s.ref->g, *s.ref->trace, s.cycle, scratch);
    encoder_.forward_segment(nodes, s.ref->adj, scratch, scratch + feat,
                             s.ref->pg->emb.row(static_cast<std::size_t>(s.cycle)));
  });

  // Repeated cycles copy their representative's row.
  for (const GraphRef& r : grefs) {
    Matrix& emb = r.pg->emb;
    const int cycles = r.trace->num_cycles();
    for (int c = 0; c < cycles; ++c) {
      if (r.rep[c] == c) continue;
      const float* src = emb.row(static_cast<std::size_t>(r.rep[c]));
      std::copy(src, src + d, emb.row(static_cast<std::size_t>(c)));
    }
  }
  encode_counters().segments.inc(total);
  encode_counters().memoized.inc(total - distinct);
  arena.rewind(marker);
}

Prediction AtlasModel::predict_from_embeddings(
    const netlist::Netlist& gate, const std::vector<SubmoduleGraph>& graphs,
    const DesignEmbeddings& emb, util::Arena* arena) const {
  if (emb.graphs.size() != graphs.size()) {
    throw std::invalid_argument(
        "predict_from_embeddings: embeddings/graphs mismatch");
  }
  obs::ObsSpan span("model", "gbdt_heads");
  static obs::Counter* predictions =
      &obs::Registry::global().counter("atlas_model_predictions_total");
  predictions->inc();
  Prediction pred;
  pred.num_cycles = emb.num_cycles;
  pred.num_submodules = gate.submodules().size();
  pred.design.assign(static_cast<std::size_t>(pred.num_cycles), {});
  pred.submodule.assign(
      static_cast<std::size_t>(pred.num_cycles) * pred.num_submodules, {});

  const std::size_t d = encoder_.dim();
  const std::size_t cycles = static_cast<std::size_t>(pred.num_cycles);
  const std::size_t ncg = graphs.size() * cycles;
  if (ncg == 0) return pred;

  // Assemble head feature rows for every (graph, cycle) into one block (the
  // same fill_*_row layout fine-tuning trains on) and evaluate each forest
  // with its batched SoA traversal.
  util::Arena local;
  util::Arena& a = arena != nullptr ? *arena : local;
  const util::Arena::Marker marker = a.mark();
  const std::size_t cdim = ct_dim(d);
  const std::size_t odim = comb_dim(d);
  const std::size_t rdim = reg_dim(d);
  float* ct_rows = a.alloc_array<float>(ncg * cdim);
  float* comb_rows = a.alloc_array<float>(ncg * odim);
  float* reg_rows = a.alloc_array<float>(ncg * rdim);
  double* out_ct = a.alloc_array<double>(ncg);
  double* out_comb = a.alloc_array<double>(ncg);
  double* out_reg = a.alloc_array<double>(ncg);

  util::parallel_for(graphs.size(), 1, [&](std::size_t gi) {
    const DesignEmbeddings::PerGraph& pg = emb.graphs[gi];
    const SubmoduleStatic& st = pg.st;
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::size_t r = gi * cycles + c;
      const float* e = pg.emb.row(c);
      const CycleExtras& ex = pg.extras[c];
      fill_ct_row(e, d, ct_rows + r * cdim);
      fill_comb_row(e, d, st, ex, comb_rows + r * odim);
      fill_reg_row(e, d, st, ex, reg_rows + r * rdim);
    }
  });

  util::parallel_for_chunks(ncg, 512, [&](std::size_t r0, std::size_t r1) {
    models_.f_ct.predict_rows(ct_rows + r0 * cdim, r1 - r0, cdim, out_ct + r0);
    models_.f_comb.predict_rows(comb_rows + r0 * odim, r1 - r0, odim,
                                out_comb + r0);
    models_.f_reg.predict_rows(reg_rows + r0 * rdim, r1 - r0, rdim,
                               out_reg + r0);
  });

  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const SubmoduleGraph& g = graphs[gi];
    const DesignEmbeddings::PerGraph& pg = emb.graphs[gi];
    const SubmoduleStatic& st = pg.st;
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::size_t r = gi * cycles + c;
      const CycleExtras& ex = pg.extras[c];
      power::GroupPower p;
      // The regressors predict ratios to the analytic gate-level estimates;
      // multiply back and clamp at zero (power cannot be negative).
      p.clock = std::max(0.0, out_ct[r]) * ct_normalizer(st);
      p.comb = std::max(0.0, out_comb[r]) * (comb_physics_uw(st, ex) + kRatioEps);
      p.reg = std::max(0.0, out_reg[r]) * (reg_physics_uw(st, ex) + kRatioEps);
      pred.submodule[c * pred.num_submodules +
                     static_cast<std::size_t>(g.submodule)] = p;
      pred.design[c] += p;
    }
  }
  a.rewind(marker);
  return pred;
}

std::string AtlasModel::to_bytes() const {
  std::string bytes;
  util::ByteWriter out(bytes);
  out.header("ATLS", 1);
  encoder_.save(out);
  models_.f_ct.save(out);
  models_.f_comb.save(out);
  models_.f_reg.save(out);
  return bytes;
}

AtlasModel AtlasModel::from_bytes(std::string_view bytes) {
  util::ByteReader in(bytes);
  in.header("ATLS");
  ml::SgFormer encoder = ml::SgFormer::load(in);
  GroupModels models{ml::GbdtRegressor::load(in), ml::GbdtRegressor::load(in),
                     ml::GbdtRegressor::load(in)};
  if (!in.done()) throw util::SerializeError("AtlasModel: trailing bytes");
  // encode_batch fills kFeatureDim features per node, and each head reads
  // rows of exactly its fill_*_row width; other widths would index past them.
  if (encoder.in_dim() != static_cast<std::size_t>(graph::kFeatureDim)) {
    throw util::SerializeError("AtlasModel: encoder input width " +
                               std::to_string(encoder.in_dim()) + " != " +
                               std::to_string(graph::kFeatureDim));
  }
  const std::size_t d = encoder.dim();
  for (const auto& [head, width] : {std::pair{&models.f_ct, ct_dim(d)},
                                    std::pair{&models.f_comb, comb_dim(d)},
                                    std::pair{&models.f_reg, reg_dim(d)}}) {
    if (head->num_trees() > 0 && head->num_features() != width) {
      throw util::SerializeError("AtlasModel: head feature width " +
                                 std::to_string(head->num_features()) +
                                 " != " + std::to_string(width));
    }
  }
  return AtlasModel(std::move(encoder), std::move(models));
}

void AtlasModel::save(const std::string& path) const {
  util::write_file(path, to_bytes());
}

AtlasModel AtlasModel::load(const std::string& path) {
  return from_bytes(util::read_file(path));
}

}  // namespace atlas::core
