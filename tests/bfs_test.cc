// GCGT BFS correctness: every strategy level on every graph family and both
// CGR layouts must produce exactly the serial BFS depths.
#include "core/bfs.h"

#include <gtest/gtest.h>

#include "baseline/cpu_bfs.h"
#include "cgr/cgr_graph.h"
#include "graph/generators.h"

namespace gcgt {
namespace {

struct BfsParam {
  const char* graph_name;
  GcgtLevel level;
  int segment_len_bytes;
};

Graph MakeTestGraph(const std::string& name) {
  if (name == "web") {
    WebGraphParams p;
    p.num_nodes = 3000;
    p.seed = 21;
    return GenerateWebGraph(p);
  }
  if (name == "social") {
    SocialGraphParams p;
    p.num_nodes = 2500;
    p.seed = 22;
    return GenerateSocialGraph(p);
  }
  if (name == "twitter") {
    TwitterGraphParams p;
    p.num_nodes = 2000;
    p.num_hubs = 4;
    p.seed = 23;
    return GenerateTwitterGraph(p);
  }
  if (name == "brain") {
    BrainGraphParams p;
    p.num_nodes = 600;
    p.avg_degree = 60;
    p.seed = 24;
    return GenerateBrainGraph(p);
  }
  if (name == "rmat") return GenerateRmat(2048, 20000, 25);
  if (name == "path") return MakePath(200);
  if (name == "star") return MakeStar(500);
  // Encoded without intervals (see MatchesSerialBfs): the center's leaves
  // fill far more residual segments than a warp has lanes.
  if (name == "star_residuals") return MakeStar(3000);
  return GenerateErdosRenyi(1000, 8000, 26);
}

std::string BfsParamName(const ::testing::TestParamInfo<BfsParam>& info) {
  std::string s = info.param.graph_name;
  s += "_lvl" + std::to_string(static_cast<int>(info.param.level));
  s += "_seg" + (info.param.segment_len_bytes
                     ? std::to_string(info.param.segment_len_bytes)
                     : std::string("inf"));
  return s;
}

class GcgtBfsCorrectness : public ::testing::TestWithParam<BfsParam> {};

TEST_P(GcgtBfsCorrectness, MatchesSerialBfs) {
  Graph g = MakeTestGraph(GetParam().graph_name);
  CgrOptions copt;
  copt.segment_len_bytes = GetParam().segment_len_bytes;
  if (std::string(GetParam().graph_name) == "star_residuals") {
    copt.min_interval_len = CgrOptions::kNoIntervals;
  }
  auto cgr = CgrGraph::Encode(g, copt);
  ASSERT_TRUE(cgr.ok()) << cgr.status().ToString();

  GcgtOptions opt;
  opt.level = GetParam().level;
  for (NodeId source : {NodeId(0), NodeId(g.num_nodes() / 2)}) {
    auto result = GcgtBfs(cgr.value(), source, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<uint32_t> expected = SerialBfs(g, source);
    ASSERT_EQ(result.value().depth.size(), expected.size());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(result.value().depth[v], expected[v])
          << "node " << v << " from source " << source;
    }
    EXPECT_GT(result.value().metrics.model_ms, 0.0);
    EXPECT_GT(result.value().metrics.kernels, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, GcgtBfsCorrectness,
    ::testing::Values(
        // All levels on the unsegmented layout.
        BfsParam{"web", GcgtLevel::kIntuitive, 0},
        BfsParam{"web", GcgtLevel::kTwoPhase, 0},
        BfsParam{"web", GcgtLevel::kTaskStealing, 0},
        BfsParam{"web", GcgtLevel::kWarpCentric, 0},
        BfsParam{"social", GcgtLevel::kIntuitive, 0},
        BfsParam{"social", GcgtLevel::kTaskStealing, 0},
        BfsParam{"social", GcgtLevel::kWarpCentric, 0},
        BfsParam{"twitter", GcgtLevel::kIntuitive, 0},
        BfsParam{"twitter", GcgtLevel::kTwoPhase, 0},
        BfsParam{"twitter", GcgtLevel::kWarpCentric, 0},
        BfsParam{"brain", GcgtLevel::kWarpCentric, 0},
        BfsParam{"rmat", GcgtLevel::kTaskStealing, 0},
        // Full GCGT on the segmented layout, several segment lengths.
        BfsParam{"web", GcgtLevel::kFull, 32},
        BfsParam{"social", GcgtLevel::kFull, 32},
        BfsParam{"twitter", GcgtLevel::kFull, 8},
        BfsParam{"twitter", GcgtLevel::kFull, 32},
        BfsParam{"twitter", GcgtLevel::kFull, 128},
        BfsParam{"brain", GcgtLevel::kFull, 32},
        BfsParam{"rmat", GcgtLevel::kFull, 16},
        BfsParam{"er", GcgtLevel::kFull, 32},
        // Full level on unsegmented (= Fig. 14 "inf" configuration).
        BfsParam{"twitter", GcgtLevel::kFull, 0},
        // Segmented layout under lower levels (serial segment walking).
        BfsParam{"social", GcgtLevel::kIntuitive, 32},
        BfsParam{"social", GcgtLevel::kTaskStealing, 32},
        // Degenerate shapes.
        BfsParam{"path", GcgtLevel::kFull, 32},
        BfsParam{"star", GcgtLevel::kFull, 32},
        BfsParam{"star", GcgtLevel::kIntuitive, 0},
        // Hub split: segmented layouts, where hubs spread over helper warps.
        BfsParam{"twitter", GcgtLevel::kHubSplit, 8},
        BfsParam{"twitter", GcgtLevel::kHubSplit, 32},
        BfsParam{"star", GcgtLevel::kHubSplit, 32},
        BfsParam{"star_residuals", GcgtLevel::kHubSplit, 8},
        BfsParam{"star_residuals", GcgtLevel::kHubSplit, 32}),
    BfsParamName);

TEST(GcgtBfs, UnreachableNodesStayUnvisited) {
  // Two disconnected cliques.
  EdgeList edges;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u != v) edges.emplace_back(u, v);
    }
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = 4; v < 8; ++v) {
      if (u != v) edges.emplace_back(u, v);
    }
  }
  Graph g = Graph::FromEdges(8, edges);
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  auto result = GcgtBfs(cgr.value(), 0, GcgtOptions{});
  ASSERT_TRUE(result.ok());
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NE(result.value().depth[v], BfsFilter::kUnvisited);
  }
  for (NodeId v = 4; v < 8; ++v) {
    EXPECT_EQ(result.value().depth[v], BfsFilter::kUnvisited);
  }
}

TEST(GcgtBfs, InvalidSourceRejected) {
  Graph g = MakePath(4);
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  auto result = GcgtBfs(cgr.value(), 99, GcgtOptions{});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GcgtBfs, OutOfMemoryWhenDeviceTooSmall) {
  Graph g = GenerateErdosRenyi(2000, 20000, 3);
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr.ok());
  GcgtOptions opt;
  opt.device.memory_bytes = 1024;  // absurdly small device
  auto result = GcgtBfs(cgr.value(), 0, opt);
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(GcgtBfs, OptimizationLevelsReduceModelTime) {
  // The headline of Fig. 9: each scheduling level is at least as fast as the
  // previous on a skewed graph.
  TwitterGraphParams p;
  p.num_nodes = 3000;
  p.num_hubs = 5;
  p.seed = 31;
  Graph g = GenerateTwitterGraph(p);

  CgrOptions unseg;
  unseg.segment_len_bytes = 0;
  auto cgr_unseg = CgrGraph::Encode(g, unseg);
  auto cgr_seg = CgrGraph::Encode(g, CgrOptions{});
  ASSERT_TRUE(cgr_unseg.ok() && cgr_seg.ok());

  double prev = 1e300;
  for (GcgtLevel level : {GcgtLevel::kIntuitive, GcgtLevel::kTwoPhase,
                          GcgtLevel::kTaskStealing, GcgtLevel::kWarpCentric,
                          GcgtLevel::kFull}) {
    GcgtOptions opt;
    opt.level = level;
    const CgrGraph& graph =
        level == GcgtLevel::kFull ? cgr_seg.value() : cgr_unseg.value();
    auto result = GcgtBfs(graph, 0, opt);
    ASSERT_TRUE(result.ok());
    double ms = result.value().metrics.model_ms;
    EXPECT_LT(ms, prev * 1.10)  // allow 10% noise between adjacent levels
        << "level " << GcgtLevelName(level);
    prev = ms;
  }
}

}  // namespace
}  // namespace gcgt
