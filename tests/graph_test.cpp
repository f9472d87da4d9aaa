#include <gtest/gtest.h>

#include <algorithm>

#include "designgen/design_generator.h"
#include "graph/submodule_graph.h"
#include "liberty/library.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"

namespace atlas::graph {
namespace {

using netlist::Netlist;

class GraphTest : public ::testing::Test {
 protected:
  GraphTest()
      : lib_(liberty::make_default_library()),
        nl_(designgen::generate_design(designgen::paper_design_spec(1, 0.003),
                                       lib_)) {}

  liberty::Library lib_;
  Netlist nl_;
};

TEST_F(GraphTest, FeatureLayoutConstants) {
  EXPECT_EQ(kFeatureDim, 24);
  EXPECT_EQ(kToggleOffset, 18);
  EXPECT_LT(kMaskToggleFlag, kFeatureDim);
  EXPECT_LT(kCapOffset, kFeatureDim);
}

TEST_F(GraphTest, BuildsGraphForEverySubmodule) {
  const auto graphs = build_submodule_graphs(nl_);
  EXPECT_EQ(graphs.size(), nl_.submodules().size());
  std::size_t covered = 0;
  for (const auto& g : graphs) {
    EXPECT_GT(g.num_nodes(), 0u);
    EXPECT_EQ(g.static_features.rows(), g.num_nodes());
    EXPECT_EQ(g.static_features.cols(),
              static_cast<std::size_t>(kFeatureDim));
    covered += g.num_nodes();
  }
  EXPECT_EQ(covered, nl_.num_cells());
}

TEST_F(GraphTest, OneHotTypesAreConsistent) {
  const auto g = build_submodule_graph(nl_, 0);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    int ones = 0;
    int hot = -1;
    for (int t = 0; t < liberty::kNumNodeTypes; ++t) {
      if (g.static_features.at(i, static_cast<std::size_t>(kTypeOffset + t)) == 1.0f) {
        ++ones;
        hot = t;
      }
    }
    EXPECT_EQ(ones, 1);
    EXPECT_EQ(hot, g.node_type[i]);
    EXPECT_EQ(hot, static_cast<int>(nl_.lib_cell(g.cells[i]).type));
  }
}

TEST_F(GraphTest, EdgesStayInsideSubmodule) {
  for (const auto& g : build_submodule_graphs(nl_)) {
    for (const auto& [src, dst] : g.edges) {
      ASSERT_LT(src, g.num_nodes());
      ASSERT_LT(dst, g.num_nodes());
      // Edge direction follows driver -> sink in the netlist.
      const netlist::NetId net = g.out_net[src];
      ASSERT_NE(net, netlist::kNoNet);
      bool found = false;
      for (const auto& s : nl_.net(net).sinks) found = found || s.cell == g.cells[dst];
      EXPECT_TRUE(found);
    }
  }
}

TEST_F(GraphTest, MaskFlagsStartZero) {
  const auto g = build_submodule_graph(nl_, 0);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.static_features.at(i, kMaskToggleFlag), 0.0f);
    EXPECT_EQ(g.static_features.at(i, kMaskTypeFlag), 0.0f);
    EXPECT_EQ(g.static_features.at(i, kToggleOffset), 0.0f);
  }
}

TEST_F(GraphTest, PowerFeaturesPositive) {
  const auto g = build_submodule_graph(nl_, 0);
  int with_energy = 0;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_GE(g.static_features.at(i, kLeakageOffset), 0.0f);
    with_energy += g.static_features.at(i, kInternalOffset) > 0.0f;
  }
  EXPECT_GT(with_energy, static_cast<int>(g.num_nodes() / 2));
}

TEST_F(GraphTest, CycleFeaturesTrackToggles) {
  sim::CycleSimulator sim(nl_);
  sim::StimulusGenerator stim(nl_, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, 20);
  const auto g = build_submodule_graph(nl_, 0);
  ml::Matrix feats;
  fill_cycle_features(g, trace, 10, feats);
  ASSERT_EQ(feats.rows(), g.num_nodes());
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const netlist::NetId net = g.out_net[i];
    if (net == netlist::kNoNet) continue;
    EXPECT_FLOAT_EQ(feats.at(i, kToggleOffset),
                    static_cast<float>(trace.transitions(10, net)) * 0.5f);
    // Static channels untouched.
    EXPECT_FLOAT_EQ(feats.at(i, kCapOffset), g.static_features.at(i, kCapOffset));
  }
}

TEST_F(GraphTest, ToggleChannelKeyMatchesCycleFeatures) {
  // The encoder's cycle memo keys on the toggle channel: two cycles are the
  // same channel exactly when fill_cycle_features gives them identical
  // rows, and equal channels hash equal.
  sim::CycleSimulator sim(nl_);
  sim::StimulusGenerator stim(nl_, sim::make_w1());
  const sim::ToggleTrace trace = sim.run(stim, 20);
  const auto g = build_submodule_graph(nl_, 0);
  ml::Matrix fa;
  ml::Matrix fb;
  int same = 0;
  int differ = 0;
  for (int a = 0; a < trace.num_cycles(); ++a) {
    fill_cycle_features(g, trace, a, fa);
    for (int b = 0; b < trace.num_cycles(); ++b) {
      fill_cycle_features(g, trace, b, fb);
      const bool rows_equal =
          std::equal(fa.data(), fa.data() + fa.size(), fb.data());
      EXPECT_EQ(same_toggle_channel(g, trace, a, b), rows_equal)
          << "cycles " << a << ", " << b;
      if (rows_equal) {
        EXPECT_EQ(toggle_channel_hash(g, trace, a),
                  toggle_channel_hash(g, trace, b));
      }
      ++(rows_equal ? same : differ);
    }
  }
  EXPECT_GT(differ, 0);  // the trace toggles the sub-module at all
  EXPECT_GE(same, trace.num_cycles());
}

TEST_F(GraphTest, EmptySubmoduleThrows) {
  Netlist empty("e", lib_);
  empty.add_component("c");
  const auto sm = empty.add_submodule("s", "r", 0);
  EXPECT_THROW(build_submodule_graph(empty, sm), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::graph
