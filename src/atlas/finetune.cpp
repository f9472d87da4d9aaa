#include "atlas/finetune.h"

#include <algorithm>
#include <stdexcept>

#include "atlas/model.h"

namespace atlas::core {

using graph::SubmoduleGraph;
using ml::Matrix;

SubmoduleStatic compute_submodule_static(const netlist::Netlist& gate,
                                         const SubmoduleGraph& g) {
  SubmoduleStatic st;
  const liberty::Library& lib = gate.library();
  st.volt_sq = lib.voltage() * lib.voltage();
  st.period_ns = lib.clock_period_ns();
  st.internal_fj.resize(g.num_nodes(), 0.0f);
  st.cap_ff.resize(g.num_nodes(), 0.0f);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const netlist::CellInstId cid = g.cells[i];
    const liberty::Cell& lc = gate.lib_cell(cid);
    const liberty::PowerGroup group = liberty::power_group_of(lc.type);
    if (group == liberty::PowerGroup::kComb) {
      ++st.n_comb;
      st.leak_comb_uw += lc.leakage_uw;
    }
    if (group == liberty::PowerGroup::kRegister) {
      ++st.n_reg;
      st.leak_reg_uw += lc.leakage_uw;
      st.clockpin_reg_fj += lc.clock_pin_energy_fj;
    }
    double load = 0.0;
    if (g.out_net[i] != netlist::kNoNet) {
      load = layout::net_load_ff(gate, g.out_net[i]);
    }
    st.internal_fj[i] = static_cast<float>(
        lib.internal_energy_fj(gate.cell(cid).lib_cell, load));
    st.cap_ff[i] = static_cast<float>(load);
  }
  return st;
}

double comb_physics_uw(const SubmoduleStatic& st, const CycleExtras& ex) {
  const double switching = 0.5 * st.volt_sq * static_cast<double>(ex.c_comb);
  return (static_cast<double>(ex.i_comb) + switching) / st.period_ns +
         st.leak_comb_uw;
}

double reg_physics_uw(const SubmoduleStatic& st, const CycleExtras& ex) {
  const double switching = 0.5 * st.volt_sq * static_cast<double>(ex.c_reg);
  // Register clock pins see two edges per cycle at the gate level.
  return (static_cast<double>(ex.i_reg) + switching + 2.0 * st.clockpin_reg_fj) /
             st.period_ns +
         st.leak_reg_uw;
}

double ct_normalizer(const SubmoduleStatic& st) {
  return std::max(1, st.n_reg);
}

CycleExtras compute_cycle_extras(const SubmoduleGraph& g,
                                 const SubmoduleStatic& st,
                                 const sim::ToggleTrace& gate_trace, int cycle) {
  CycleExtras ex;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const netlist::NetId net = g.out_net[i];
    if (net == netlist::kNoNet) continue;
    const float toggles =
        static_cast<float>(gate_trace.transitions(cycle, net));
    if (toggles == 0.0f) continue;
    const auto type = static_cast<liberty::NodeType>(g.node_type[i]);
    const liberty::PowerGroup group = liberty::power_group_of(type);
    if (group == liberty::PowerGroup::kComb) {
      ex.i_comb += st.internal_fj[i] * toggles;
      ex.c_comb += st.cap_ff[i] * toggles;
    } else if (group == liberty::PowerGroup::kRegister) {
      ex.i_reg += st.internal_fj[i] * toggles;
      ex.c_reg += st.cap_ff[i] * toggles;
    }
  }
  return ex;
}

std::size_t ct_dim(std::size_t d) { return d; }
std::size_t comb_dim(std::size_t d) { return d + 3; }
std::size_t reg_dim(std::size_t d) { return d + 3; }

void fill_ct_row(const float* emb, std::size_t d, float* row) {
  std::copy(emb, emb + d, row);
}

void fill_comb_row(const float* emb, std::size_t d, const SubmoduleStatic& st,
                   const CycleExtras& ex, float* row) {
  std::copy(emb, emb + d, row);
  row[d] = static_cast<float>(st.n_comb);
  row[d + 1] = ex.i_comb;
  row[d + 2] = ex.c_comb;
}

void fill_reg_row(const float* emb, std::size_t d, const SubmoduleStatic& st,
                  const CycleExtras& ex, float* row) {
  std::copy(emb, emb + d, row);
  row[d] = static_cast<float>(st.n_reg);
  row[d + 1] = ex.i_reg;
  row[d + 2] = ex.c_reg;
}

namespace {

// Every `stride`-th cycle of `trace`, as a trace of its own. A segment's
// embedding and extras depend only on its own cycle, so encoding this
// yields exactly the training cycles' rows without encoding the others.
sim::ToggleTrace every_nth_cycle(const sim::ToggleTrace& trace, int stride) {
  sim::ToggleTrace out(trace.num_nets(),
                       (trace.num_cycles() + stride - 1) / stride);
  for (int c = 0; c < out.num_cycles(); ++c) {
    for (netlist::NetId n = 0; n < trace.num_nets(); ++n) {
      out.set(c, n, trace.value(c * stride, n),
              trace.transitions(c * stride, n));
    }
  }
  return out;
}

}  // namespace

GroupModels finetune_models(const std::vector<const DesignData*>& designs,
                            const ml::SgFormer& encoder,
                            const FinetuneConfig& config) {
  if (designs.empty()) throw std::invalid_argument("finetune: no designs");
  const std::size_t d = encoder.dim();
  const int stride = std::max(1, config.cycle_stride);

  // Count rows first.
  std::size_t rows = 0;
  for (const DesignData* dd : designs) {
    for (const auto& wl : dd->workloads) {
      const int cycles = wl.gate_trace.num_cycles();
      rows += dd->gate_graphs.size() *
              static_cast<std::size_t>((cycles + stride - 1) / stride);
    }
  }
  Matrix x_ct(rows, ct_dim(d));
  Matrix x_comb(rows, comb_dim(d));
  Matrix x_reg(rows, reg_dim(d));
  std::vector<double> y_ct, y_comb, y_reg;
  y_ct.reserve(rows);
  y_comb.reserve(rows);
  y_reg.reserve(rows);

  // Training rows come from the inference encoder: one encode_batch per
  // design over the training cycles of all its workloads. The extraction
  // model's default heads are never evaluated.
  const AtlasModel extractor(
      encoder, GroupModels{ml::GbdtRegressor(), ml::GbdtRegressor(),
                           ml::GbdtRegressor()});
  util::Arena arena;
  std::size_t row = 0;
  for (const DesignData* dd : designs) {
    std::vector<sim::ToggleTrace> traces;
    for (const auto& wl : dd->workloads) {
      traces.push_back(every_nth_cycle(wl.gate_trace, stride));
    }
    std::vector<DesignEmbeddings> embs(traces.size());
    std::vector<AtlasModel::EncodeItem> items;
    for (std::size_t w = 0; w < traces.size(); ++w) {
      items.push_back({&dd->gate, &dd->gate_graphs, &traces[w], &embs[w]});
    }
    extractor.encode_batch(items.data(), items.size(), arena);
    for (std::size_t w = 0; w < traces.size(); ++w) {
      const power::PowerResult& golden = dd->workloads[w].golden;
      for (std::size_t gi = 0; gi < dd->gate_graphs.size(); ++gi) {
        const DesignEmbeddings::PerGraph& pg = embs[w].graphs[gi];
        const SubmoduleStatic& st = pg.st;
        const netlist::SubmoduleId sm = dd->gate_graphs[gi].submodule;
        for (std::size_t c = 0; c < pg.extras.size(); ++c) {
          const CycleExtras& ex = pg.extras[c];
          fill_ct_row(pg.emb.row(c), d, x_ct.row(row));
          fill_comb_row(pg.emb.row(c), d, st, ex, x_comb.row(row));
          fill_reg_row(pg.emb.row(c), d, st, ex, x_reg.row(row));
          const power::GroupPower& label =
              golden.submodule(static_cast<int>(c) * stride, sm);
          // Ratio targets against the analytic gate-level estimates (see
          // comb_physics_uw): trees model the bounded layout-uplift ratio.
          y_ct.push_back(label.clock / ct_normalizer(st));
          y_comb.push_back(label.comb / (comb_physics_uw(st, ex) + kRatioEps));
          y_reg.push_back(label.reg / (reg_physics_uw(st, ex) + kRatioEps));
          ++row;
        }
      }
    }
  }
  if (row != rows) throw std::logic_error("finetune: row accounting mismatch");

  GroupModels models{ml::GbdtRegressor(config.gbdt),
                     ml::GbdtRegressor(config.gbdt),
                     ml::GbdtRegressor(config.gbdt)};
  models.f_ct.fit(x_ct, y_ct);
  models.f_comb.fit(x_comb, y_comb);
  models.f_reg.fit(x_reg, y_reg);
  return models;
}

}  // namespace atlas::core
