#include "designgen/design_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "designgen/blocks.h"
#include "util/rng.h"
#include "util/strings.h"

namespace atlas::designgen {

using netlist::NetId;

namespace {

struct RoleWeight {
  std::string_view role;
  double weight;
};

// mem_ctrl is excluded here: memories are placed explicitly.
constexpr RoleWeight kRoleWeights[] = {
    {"adder", 1.2},       {"alu", 1.5},          {"decoder", 0.8},
    {"mux_tree", 1.2},    {"comparator", 0.8},   {"counter", 0.8},
    {"shift_reg", 0.8},   {"lfsr", 0.5},         {"fsm", 1.0},
    {"parity", 0.7},      {"priority_enc", 0.7}, {"regfile", 1.0},
    {"fifo_ctrl", 0.8},   {"pipeline_reg", 1.5}, {"multiplier_slice", 0.7},
};

const std::vector<std::string> kComponentPool = {
    "frontend", "decode", "exec", "lsu", "dcache", "icache", "ctrl", "retire"};

/// Sample from the pool with Rent-rule-style locality: most wires come from
/// a bounded window of recently produced nets (so average wirelength does
/// not grow with design size), with a small fraction of global wires.
NetId sample_net(const std::vector<NetId>& pool, util::Rng& rng) {
  constexpr std::size_t kLocalWindow = 300;
  constexpr double kGlobalFraction = 0.12;
  if (pool.size() > kLocalWindow && !rng.next_bool(kGlobalFraction)) {
    const std::size_t idx =
        pool.size() - 1 - static_cast<std::size_t>(rng.next_below(kLocalWindow));
    return pool[idx];
  }
  return pool[rng.next_below(pool.size())];
}

}  // namespace

DesignSpec paper_design_spec(int index, double scale) {
  if (index < 1 || index > 6) {
    throw std::invalid_argument("paper_design_spec: index must be 1..6");
  }
  DesignSpec spec;
  spec.name = "C" + std::to_string(index);
  spec.seed = 1000 + static_cast<std::uint64_t>(index) * 7919;
  spec.target_cells = static_cast<std::size_t>(
      std::llround(static_cast<double>(kPaperGateCells[index - 1]) * scale));
  // Distinct component mixes; C2 mirrors the paper's out-of-order CPU
  // (frontend / decode / exec / lsu / dcache — Fig. 6 shows five components).
  switch (index) {
    case 1: spec.components = {"frontend", "exec", "ctrl", "dcache"}; break;
    case 2: spec.components = {"frontend", "decode", "exec", "lsu", "dcache"}; break;
    case 3: spec.components = {"frontend", "decode", "exec", "retire", "icache"}; break;
    case 4: spec.components = {"frontend", "exec", "lsu", "ctrl", "dcache", "retire"}; break;
    case 5: spec.components = {"decode", "exec", "lsu", "ctrl", "icache", "dcache"}; break;
    case 6: spec.components = {"frontend", "decode", "exec", "lsu", "retire", "ctrl", "dcache"}; break;
    default: break;
  }
  spec.num_memories = 1 + index / 3;  // bigger designs carry more SRAMs
  spec.num_primary_inputs = 64 + index * 8;
  spec.num_primary_outputs = 32;
  return spec;
}

netlist::Netlist generate_design(const DesignSpec& spec,
                                 const liberty::Library& lib) {
  if (spec.target_cells < 200) {
    throw std::invalid_argument("generate_design: target_cells too small");
  }
  util::Rng rng(spec.seed);
  netlist::Netlist nl(spec.name, lib);

  // Clock / reset / data primary inputs.
  const NetId clk = nl.add_net("clk");
  nl.mark_primary_input(clk);
  nl.set_clock_net(clk);
  const NetId rstn = nl.add_net("rstn");
  nl.mark_primary_input(rstn);
  std::vector<NetId> pool;
  for (int i = 0; i < spec.num_primary_inputs; ++i) {
    const NetId pi = nl.add_net("pi_" + std::to_string(i));
    nl.mark_primary_input(pi);
    pool.push_back(pi);
  }

  std::vector<std::string> components =
      spec.components.empty() ? kComponentPool : spec.components;
  std::vector<int> comp_ids;
  comp_ids.reserve(components.size());
  for (const auto& c : components) comp_ids.push_back(nl.add_component(c));

  // Identify cache-like components for memory placement.
  std::vector<std::size_t> cache_comps;
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (components[i].find("cache") != std::string::npos) cache_comps.push_back(i);
  }
  if (cache_comps.empty()) cache_comps.push_back(components.size() - 1);

  // Role selection draws from a shuffled weighted deck: every role appears in
  // each deck pass, so any design with enough sub-modules covers the full
  // role taxonomy while bigger weights still occur more often.
  std::vector<std::string_view> deck;
  auto refill_deck = [&]() {
    // Extras (weight-proportional) at the bottom, one-of-each on top: the
    // first draws of every pass cover all roles.
    std::vector<std::string_view> extras;
    std::vector<std::string_view> base;
    for (const RoleWeight& rw : kRoleWeights) {
      base.push_back(rw.role);
      const int copies = std::max(0, static_cast<int>(std::lround(rw.weight * 2.0)) - 1);
      for (int i = 0; i < copies; ++i) extras.push_back(rw.role);
    }
    rng.shuffle(extras);
    rng.shuffle(base);
    deck = std::move(extras);
    deck.insert(deck.end(), base.begin(), base.end());
  };
  refill_deck();

  int block_counter = 0;
  int memories_placed = 0;
  std::size_t comp_cursor = 0;

  auto place_block = [&](std::string_view role, std::size_t comp_index) {
    const std::string sm_name =
        std::string(role) + "_" + std::to_string(block_counter++);
    const netlist::SubmoduleId sm = nl.add_submodule(
        sm_name, std::string(role), comp_ids[comp_index]);
    BlockBuilder builder(nl, sm, clk, rstn, rng);
    const int n_inputs = 16 + static_cast<int>(rng.next_below(32));
    NetVec inputs;
    inputs.reserve(static_cast<std::size_t>(n_inputs));
    for (int i = 0; i < n_inputs; ++i) inputs.push_back(sample_net(pool, rng));
    const int width = 6 + static_cast<int>(rng.next_below(24));
    NetVec outs = build_block(role, builder, inputs, width);
    pool.insert(pool.end(), outs.begin(), outs.end());
  };

  // Every design starts with a free-running PRBS/timer block: real SoCs
  // always contain free-running counters, and they keep background activity
  // (and hence per-cycle power) alive through idle workload phases.
  place_block("lfsr", 0);

  while (nl.num_cells() < spec.target_cells) {
    const std::size_t comp_index = comp_cursor % components.size();
    ++comp_cursor;
    // Place memories spread through generation inside cache components.
    const bool want_memory =
        memories_placed < spec.num_memories &&
        nl.num_cells() > spec.target_cells / 4 * static_cast<std::size_t>(memories_placed + 1) /
                             static_cast<std::size_t>(spec.num_memories > 0 ? spec.num_memories : 1);
    if (want_memory) {
      place_block("mem_ctrl", cache_comps[static_cast<std::size_t>(memories_placed) %
                                          cache_comps.size()]);
      ++memories_placed;
      continue;
    }
    if (deck.empty()) refill_deck();
    const std::string_view role = deck.back();
    deck.pop_back();
    place_block(role, comp_index);
  }
  while (memories_placed < spec.num_memories) {
    place_block("mem_ctrl",
                cache_comps[static_cast<std::size_t>(memories_placed) % cache_comps.size()]);
    ++memories_placed;
  }

  // Primary outputs: the most recently produced registered nets.
  const int n_po = std::min<int>(spec.num_primary_outputs,
                                 static_cast<int>(pool.size()));
  for (int i = 0; i < n_po; ++i) {
    nl.mark_primary_output(pool[pool.size() - 1 - static_cast<std::size_t>(i)]);
  }

  nl.check();
  return nl;
}

}  // namespace atlas::designgen
