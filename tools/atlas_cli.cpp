// atlas_cli — command-line front end over the library's file formats.
//
// Subcommands:
//   gen      generate a synthetic design          -> structural Verilog
//   liberty  write the default technology library -> Liberty
//   layout   run the layout flow on a netlist     -> Verilog + SPEF
//   sim      simulate a workload                  -> VCD (+ stats)
//   power    simulate + golden power analysis     -> CSV trace + report
//   train    train ATLAS on the paper's training designs -> model file
//   predict  ATLAS per-cycle power for a gate-level netlist -> CSV
//
// Netlists parsed from Verilog without sub-module attributes are split with
// the structural fallback partitioner before prediction.
#include <cstdio>
#include <cstring>
#include <string>

#include "atlas/flow.h"
#include "atlas/preprocess.h"
#include "designgen/design_generator.h"
#include "layout/layout_flow.h"
#include "liberty/liberty_io.h"
#include "netlist/verilog_io.h"
#include "obs/trace.h"
#include "power/power_report.h"
#include "sim/external_trace.h"
#include "sim/vcd.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/strings.h"

namespace {

using namespace atlas;

/// Flags every subcommand accepts; apply with apply_common_flags() after
/// cli.parse().
util::Cli& add_common_flags(util::Cli& cli) {
  return cli
      .flag("threads", "0",
            "worker threads (0 = hardware concurrency, 1 = serial)")
      .flag("trace-out", "",
            "write a Chrome trace JSON of this run (also env ATLAS_TRACE)");
}

void apply_common_flags(const util::Cli& cli) {
  util::set_global_threads(static_cast<int>(cli.integer("threads")));
  const std::string trace_out = cli.str("trace-out");
  if (!trace_out.empty()) {
    obs::Trace::enable();
    obs::Trace::set_output_path(trace_out);  // flag wins over ATLAS_TRACE
  } else {
    obs::init_trace_from_env();
  }
}

sim::WorkloadSpec workload_by_name(const std::string& name) {
  if (name == "w1" || name == "W1") return sim::make_w1();
  if (name == "w2" || name == "W2") return sim::make_w2();
  throw std::runtime_error("unknown workload: " + name + " (use w1 or w2)");
}

liberty::Library load_lib(const util::Cli& cli) {
  const std::string path = cli.str("lib");
  if (path.empty()) return liberty::make_default_library();
  return liberty::load_liberty_file(path);
}

/// Toggle activity for `power`/`predict`: replay a recorded trace when
/// --vcd is set — VCD text or a binary ATDT delta file, sniffed by magic
/// (the same resolve() path atlas_serve streaming requests take, so offline
/// and online predictions from one trace are bit-identical in either
/// encoding) — else simulate the named synthetic workload.
sim::ToggleTrace workload_or_vcd_trace(const util::Cli& cli,
                                       const netlist::Netlist& nl) {
  const std::string vcd_path = cli.str("vcd");
  if (!vcd_path.empty()) {
    const sim::ExternalTrace ext = sim::ExternalTrace::from_file(vcd_path);
    sim::ToggleTrace trace = ext.resolve(nl);
    std::printf("replaying %s (%s): %d cycles (hash %016llx)\n",
                vcd_path.c_str(),
                ext.encoding() == sim::TraceEncoding::kDelta ? "delta" : "vcd",
                trace.num_cycles(),
                static_cast<unsigned long long>(ext.content_hash()));
    return trace;
  }
  sim::CycleSimulator simulator(nl);
  sim::StimulusGenerator stimulus(nl, workload_by_name(cli.str("workload")));
  return simulator.run(stimulus, static_cast<int>(cli.integer("cycles")));
}

int cmd_gen(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("name", "design", "design name")
      .flag("seed", "1", "generator seed")
      .flag("cells", "2000", "approximate cell count")
      .flag("out", "design.v", "output Verilog path")
      .flag("lib", "", "Liberty file (default: built-in library)");
  add_common_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  apply_common_flags(cli);
  const liberty::Library lib = load_lib(cli);
  designgen::DesignSpec spec;
  spec.name = cli.str("name");
  spec.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  spec.target_cells = static_cast<std::size_t>(cli.integer("cells"));
  const netlist::Netlist nl = designgen::generate_design(spec, lib);
  netlist::save_verilog_file(nl, cli.str("out"));
  std::printf("wrote %s: %zu cells, %zu nets, %zu sub-modules\n",
              cli.str("out").c_str(), nl.num_cells(), nl.num_nets(),
              nl.submodules().size());
  return 0;
}

int cmd_liberty(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("out", "atlas40lp.lib", "output Liberty path");
  add_common_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  apply_common_flags(cli);
  const liberty::Library lib = liberty::make_default_library();
  liberty::save_liberty_file(lib, cli.str("out"));
  std::printf("wrote %s: %zu cells\n", cli.str("out").c_str(), lib.size());
  return 0;
}

int cmd_layout(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("in", "design.v", "gate-level Verilog input")
      .flag("lib", "", "Liberty file (default: built-in library)")
      .flag("out-netlist", "design_layout.v", "post-layout Verilog output")
      .flag("out-spef", "design_layout.spef", "extracted parasitics output");
  add_common_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  apply_common_flags(cli);
  const liberty::Library lib = load_lib(cli);
  const netlist::Netlist gate = netlist::load_verilog_file(cli.str("in"), lib);
  const layout::LayoutResult post = layout::run_layout(gate);
  netlist::save_verilog_file(post.netlist, cli.str("out-netlist"));
  layout::save_spef_file(post.netlist, post.parasitics, cli.str("out-spef"));
  std::printf(
      "layout: %zu -> %zu cells (%d timing buffers, %d resizes, %d ICGs, %d "
      "clock buffers)\nwrote %s, %s\n",
      gate.num_cells(), post.netlist.num_cells(),
      post.timing_stats.buffers_inserted, post.timing_stats.resized,
      post.cts_stats.icgs, post.cts_stats.clock_buffers,
      cli.str("out-netlist").c_str(), cli.str("out-spef").c_str());
  return 0;
}

int cmd_sim(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("in", "design.v", "Verilog input")
      .flag("lib", "", "Liberty file (default: built-in library)")
      .flag("workload", "w1", "workload (w1 | w2)")
      .flag("cycles", "300", "cycles to simulate")
      .flag("out", "trace.vcd", "VCD output");
  add_common_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  apply_common_flags(cli);
  const liberty::Library lib = load_lib(cli);
  const netlist::Netlist nl = netlist::load_verilog_file(cli.str("in"), lib);
  sim::CycleSimulator simulator(nl);
  sim::StimulusGenerator stimulus(nl, workload_by_name(cli.str("workload")));
  const int cycles = static_cast<int>(cli.integer("cycles"));
  const sim::ToggleTrace trace = simulator.run(stimulus, cycles);
  sim::save_vcd_file(nl, trace, simulator.clock_net_mask(), cli.str("out"));
  long long transitions = 0;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    transitions += trace.total_transitions(n);
  }
  std::printf("simulated %d cycles: %lld transitions (%.3f avg per net-cycle)\n",
              cycles, transitions,
              static_cast<double>(transitions) /
                  (static_cast<double>(nl.num_nets()) * cycles));
  std::printf("wrote %s\n", cli.str("out").c_str());
  return 0;
}

int cmd_power(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("in", "design_layout.v", "Verilog input (post-layout for golden)")
      .flag("lib", "", "Liberty file (default: built-in library)")
      .flag("spef", "", "SPEF parasitics to annotate (optional)")
      .flag("workload", "w1", "workload (w1 | w2)")
      .flag("cycles", "300", "cycles to simulate")
      .flag("vcd", "", "replay a recorded trace (VCD text or ATDT delta) "
                       "instead of simulating")
      .flag("csv", "power.csv", "per-cycle power CSV output");
  add_common_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  apply_common_flags(cli);
  const liberty::Library lib = load_lib(cli);
  netlist::Netlist nl = netlist::load_verilog_file(cli.str("in"), lib);
  if (!cli.str("spef").empty()) {
    layout::annotate(nl, layout::load_spef_file(cli.str("spef"), nl));
  }
  const sim::ToggleTrace trace = workload_or_vcd_trace(cli, nl);
  const power::PowerResult result = power::analyze_power(nl, trace);
  util::write_file(cli.str("csv"), power::trace_csv(result));
  std::printf("%s", power::group_table(result.average_design()).c_str());
  std::printf("wrote %s\n", cli.str("csv").c_str());
  return 0;
}

int cmd_train(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("scale", "0.01", "design scale for the training corpus")
      .flag("cycles", "300", "workload cycles")
      .flag("epochs", "10", "pre-training epochs")
      .flag("out", "atlas_model.bin", "trained model output")
      .flag("cache-dir", "atlas_cache", "model cache directory");
  add_common_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  apply_common_flags(cli);
  core::ExperimentConfig cfg;
  cfg.scale = cli.real("scale");
  cfg.cycles = static_cast<int>(cli.integer("cycles"));
  cfg.pretrain.epochs = static_cast<int>(cli.integer("epochs"));
  cfg.cache_dir = cli.str("cache-dir");
  core::Experiment exp(cfg);
  exp.model().save(cli.str("out"));
  std::printf("trained on C1/C3/C5/C6 at scale %.4g; model written to %s\n",
              cfg.scale, cli.str("out").c_str());
  for (const int d : cfg.test_designs) {
    const core::EvalRow row = exp.evaluate(d, 0);
    std::printf("  held-out %s/%s: ATLAS %s\n", row.design.c_str(),
                row.workload.c_str(), core::format_group_mape(row.atlas).c_str());
  }
  return 0;
}

int cmd_predict(int argc, const char* const* argv) {
  util::Cli cli;
  cli.flag("model", "atlas_model.bin", "trained ATLAS model")
      .flag("in", "design.v", "gate-level Verilog input")
      .flag("lib", "", "Liberty file (default: built-in library)")
      .flag("workload", "w1", "workload (w1 | w2)")
      .flag("cycles", "300", "cycles to simulate")
      .flag("vcd", "", "replay a recorded trace (VCD text or ATDT delta) "
                       "instead of simulating")
      .flag("csv", "atlas_power.csv", "per-cycle predicted power CSV");
  add_common_flags(cli).parse(argc, argv);
  if (cli.help_requested()) return 0;
  apply_common_flags(cli);
  const liberty::Library lib = load_lib(cli);
  netlist::Netlist gate = netlist::load_verilog_file(cli.str("in"), lib);
  // Third-party netlists may arrive without sub-module attributes.
  const int created = core::assign_submodules_by_structure(gate);
  if (created > 0) {
    std::printf("no sub-module attributes found: structural splitter created "
                "%d sub-modules\n", created);
  }
  const auto graphs = graph::build_submodule_graphs(gate);
  const sim::ToggleTrace trace = workload_or_vcd_trace(cli, gate);

  const core::AtlasModel model = core::AtlasModel::load(cli.str("model"));
  const core::Prediction pred = model.predict(gate, graphs, trace);

  util::write_file(cli.str("csv"), power::prediction_csv(pred.design));
  std::printf("%s", power::prediction_summary(pred.design).c_str());
  std::printf("wrote %s\n", cli.str("csv").c_str());
  return 0;
}

void usage() {
  std::puts(
      "usage: atlas_cli <command> [flags]   (--help per command)\n"
      "  gen      generate a synthetic design -> Verilog\n"
      "  liberty  write the default technology library -> Liberty\n"
      "  layout   place/optimize/CTS a netlist -> Verilog + SPEF\n"
      "  sim      simulate a workload -> VCD\n"
      "  power    golden per-cycle power analysis -> CSV\n"
      "  train    train ATLAS (paper protocol) -> model file\n"
      "  predict  ATLAS per-cycle power for a gate-level netlist -> CSV");
}

}  // namespace

int run_command(const std::string& cmd, int argc, char** argv) {
  if (cmd == "gen") return cmd_gen(argc - 1, argv + 1);
  if (cmd == "liberty") return cmd_liberty(argc - 1, argv + 1);
  if (cmd == "layout") return cmd_layout(argc - 1, argv + 1);
  if (cmd == "sim") return cmd_sim(argc - 1, argv + 1);
  if (cmd == "power") return cmd_power(argc - 1, argv + 1);
  if (cmd == "train") return cmd_train(argc - 1, argv + 1);
  if (cmd == "predict") return cmd_predict(argc - 1, argv + 1);
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage();
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  usage();
  return 1;
}

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  int ret = 1;
  try {
    ret = run_command(cmd, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  // Flush even on error: a trace of the failed run is the useful one.
  try {
    if (obs::Trace::flush_file()) {
      std::fprintf(stderr, "trace written to %s\n",
                   obs::Trace::output_path().c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace flush failed: %s\n", e.what());
    ret = ret == 0 ? 1 : ret;
  }
  return ret;
}
