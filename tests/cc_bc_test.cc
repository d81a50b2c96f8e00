// GCGT extensions (paper §6): Connected Components and Betweenness
// Centrality on CGR, validated against serial CPU references.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baseline/cpu_reference.h"
#include "core/bc.h"
#include "core/cc.h"
#include "graph/generators.h"

namespace gcgt {
namespace {

// Components are equal iff the partitions agree (representatives may differ).
void ExpectSamePartition(const std::vector<NodeId>& a,
                         const std::vector<NodeId>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::map<NodeId, NodeId> a2b;
  for (size_t i = 0; i < a.size(); ++i) {
    auto [it, inserted] = a2b.emplace(a[i], b[i]);
    ASSERT_EQ(it->second, b[i]) << "node " << i << " splits a component";
  }
  std::map<NodeId, NodeId> b2a;
  for (size_t i = 0; i < a.size(); ++i) {
    auto [it, inserted] = b2a.emplace(b[i], a[i]);
    ASSERT_EQ(it->second, a[i]) << "node " << i << " merges components";
  }
}

Graph MakeCcGraph(const std::string& name) {
  if (name == "two_cliques") {
    EdgeList edges;
    for (NodeId u = 0; u < 5; ++u) {
      for (NodeId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
    }
    for (NodeId u = 10; u < 14; ++u) edges.emplace_back(u, u + 1);
    return Graph::FromEdges(20, edges, /*symmetrize=*/true);
  }
  if (name == "er_sparse") return GenerateErdosRenyi(2000, 3000, 41);
  if (name == "er_dense") return GenerateErdosRenyi(800, 8000, 42);
  if (name == "web") {
    WebGraphParams p;
    p.num_nodes = 1500;
    p.seed = 43;
    return GenerateWebGraph(p);
  }
  if (name == "star") return MakeStar(3000);
  TwitterGraphParams p;
  p.num_nodes = 1500;
  p.seed = 44;
  return GenerateTwitterGraph(p);
}

// The star is encoded without intervals in 8-byte segments, so its center
// has far more residual segments than a warp has lanes (a hub under
// GcgtLevel::kHubSplit).
CgrOptions EncodeOptionsFor(const std::string& name) {
  CgrOptions options;
  if (name == "star") {
    options.min_interval_len = CgrOptions::kNoIntervals;
    options.segment_len_bytes = 8;
  }
  return options;
}

struct GraphLevel {
  const char* graph;
  GcgtLevel level;
};

class GcgtCcTest : public ::testing::TestWithParam<GraphLevel> {};

TEST_P(GcgtCcTest, MatchesUnionFind) {
  Graph g = MakeCcGraph(GetParam().graph);
  auto cgr = CgrGraph::Encode(g, EncodeOptionsFor(GetParam().graph));
  ASSERT_TRUE(cgr.ok());
  GcgtOptions opt;
  opt.level = GetParam().level;
  auto result = GcgtCc(cgr.value(), opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSamePartition(result.value().component, SerialCc(g));
  EXPECT_GT(result.value().rounds, 0);
  EXPECT_GT(result.value().metrics.model_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, GcgtCcTest,
    ::testing::Values(GraphLevel{"two_cliques", GcgtLevel::kFull},
                      GraphLevel{"er_sparse", GcgtLevel::kFull},
                      GraphLevel{"er_dense", GcgtLevel::kFull},
                      GraphLevel{"web", GcgtLevel::kFull},
                      GraphLevel{"twitter", GcgtLevel::kFull},
                      GraphLevel{"twitter", GcgtLevel::kHubSplit},
                      GraphLevel{"star", GcgtLevel::kHubSplit}));

TEST(GcgtCcEdgeCases, SingletonNodesAreOwnComponents) {
  Graph g = Graph::FromEdges(6, {{0, 1}});
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  auto result = GcgtCc(cgr.value(), GcgtOptions{});
  ASSERT_TRUE(result.ok());
  const auto& comp = result.value().component;
  EXPECT_EQ(comp[0], comp[1]);
  for (NodeId v = 2; v < 6; ++v) EXPECT_EQ(comp[v], v);
}

TEST(GcgtCcEdgeCases, DirectedEdgesGiveWeakComponents) {
  // 0 -> 1 -> 2, no back edges: still one weak component.
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  auto result = GcgtCc(cgr.value(), GcgtOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().component[0], result.value().component[2]);
}

class GcgtBcTest : public ::testing::TestWithParam<GraphLevel> {};

TEST_P(GcgtBcTest, MatchesSerialBrandes) {
  Graph g = MakeCcGraph(GetParam().graph);
  auto cgr = CgrGraph::Encode(g, EncodeOptionsFor(GetParam().graph));
  ASSERT_TRUE(cgr.ok());
  GcgtOptions opt;
  opt.level = GetParam().level;
  for (NodeId source : {NodeId(0), NodeId(g.num_nodes() / 3)}) {
    auto result = GcgtBc(cgr.value(), source, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SerialBcResult expected = SerialBc(g, source);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(result.value().depth[v], expected.depth[v]) << "node " << v;
      ASSERT_NEAR(result.value().sigma[v], expected.sigma[v],
                  1e-6 * (1 + std::abs(expected.sigma[v])))
          << "node " << v;
      ASSERT_NEAR(result.value().dependency[v], expected.dependency[v],
                  1e-6 * (1 + std::abs(expected.dependency[v])))
          << "node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, GcgtBcTest,
    ::testing::Values(GraphLevel{"two_cliques", GcgtLevel::kFull},
                      GraphLevel{"er_sparse", GcgtLevel::kFull},
                      GraphLevel{"web", GcgtLevel::kFull},
                      GraphLevel{"twitter", GcgtLevel::kFull},
                      GraphLevel{"er_dense", GcgtLevel::kTaskStealing},
                      GraphLevel{"twitter", GcgtLevel::kHubSplit},
                      GraphLevel{"star", GcgtLevel::kHubSplit}));

TEST(GcgtBc, PathGraphDependencies) {
  // On a directed path 0->1->2->3, delta(v) = #descendants on shortest paths.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  auto result = GcgtBc(cgr.value(), 0, GcgtOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().dependency[0], 0.0);  // source excluded
  EXPECT_DOUBLE_EQ(result.value().dependency[1], 2.0);
  EXPECT_DOUBLE_EQ(result.value().dependency[2], 1.0);
  EXPECT_DOUBLE_EQ(result.value().dependency[3], 0.0);
}

TEST(GcgtBc, InvalidSourceRejected) {
  Graph g = MakePath(3);
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  EXPECT_TRUE(GcgtBc(cgr.value(), 77, GcgtOptions{}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace gcgt
