// Determinism tests for the parallel traversal engine: the multi-threaded
// ProcessFrontier must produce bit-identical frontiers, labels and per-warp
// stats to the serial reference (num_threads == 1) across every GcgtLevel
// and both CGR layouts — plus the hub split's agreement with kFull and
// ThreadPool reentrancy-guard stress tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "cgr/cgr_graph.h"
#include "core/bc.h"
#include "core/bfs.h"
#include "core/cc.h"
#include "core/cgr_traversal.h"
#include "core/frontier_filter.h"
#include "core/gcgt_options.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

namespace gcgt {
namespace {

Graph TestGraph() {
  WebGraphParams params;
  params.num_nodes = 1500;
  params.avg_degree = 9;
  params.seed = 77;
  return GenerateWebGraph(params);
}

CgrGraph EncodeLayout(const Graph& g, uint32_t segment_len_bytes) {
  CgrOptions options;
  options.segment_len_bytes = segment_len_bytes;
  auto cgr = CgrGraph::Encode(g, options);
  EXPECT_TRUE(cgr.ok()) << cgr.status().ToString();
  return std::move(cgr.value());
}

GcgtOptions OptionsFor(GcgtLevel level, int num_threads) {
  GcgtOptions o;
  o.level = level;
  o.lanes = 8;  // small warps -> many chunks -> real cross-thread contention
  o.num_threads = num_threads;
  return o;
}

constexpr GcgtLevel kAllLevels[] = {
    GcgtLevel::kIntuitive, GcgtLevel::kTwoPhase, GcgtLevel::kTaskStealing,
    GcgtLevel::kWarpCentric, GcgtLevel::kFull, GcgtLevel::kHubSplit};
constexpr uint32_t kLayouts[] = {0, 32};  // unsegmented + segmented residuals

// Drives level-synchronous BFS through ProcessFrontier on both engines and
// compares every level's frontier and every warp's stats.
TEST(ParallelEngine, ProcessFrontierMatchesSerialPerLevel) {
  Graph g = TestGraph();
  for (uint32_t seg : kLayouts) {
    CgrGraph cgr = EncodeLayout(g, seg);
    for (GcgtLevel level : kAllLevels) {
      CgrTraversalEngine serial(cgr, OptionsFor(level, 1));
      CgrTraversalEngine parallel(cgr, OptionsFor(level, 4));

      BfsFilter f_serial(g.num_nodes()), f_parallel(g.num_nodes());
      const NodeId source = 3;
      f_serial.SetSource(source);
      f_parallel.SetSource(source);
      std::vector<NodeId> frontier_s{source}, frontier_p{source};
      int level_idx = 0;
      while (!frontier_s.empty() || !frontier_p.empty()) {
        std::vector<NodeId> next_s, next_p;
        std::vector<simt::WarpStats> warps_s, warps_p;
        serial.ProcessFrontier(frontier_s, f_serial, &next_s, &warps_s);
        parallel.ProcessFrontier(frontier_p, f_parallel, &next_p, &warps_p);
        ASSERT_EQ(next_s, next_p)
            << "frontier diverged at level " << level_idx << " (GcgtLevel "
            << static_cast<int>(level) << ", seg " << seg << ")";
        ASSERT_EQ(warps_s.size(), warps_p.size());
        for (size_t w = 0; w < warps_s.size(); ++w) {
          ASSERT_EQ(warps_s[w], warps_p[w])
              << "warp " << w << " stats diverged at level " << level_idx
              << " (GcgtLevel " << static_cast<int>(level) << ", seg " << seg
              << ")";
        }
        frontier_s.swap(next_s);
        frontier_p.swap(next_p);
        ++level_idx;
      }
      EXPECT_EQ(f_serial.depth(), f_parallel.depth());
    }
  }
}

TEST(ParallelEngine, BfsDriverBitIdentical) {
  Graph g = TestGraph();
  for (uint32_t seg : kLayouts) {
    CgrGraph cgr = EncodeLayout(g, seg);
    for (GcgtLevel level : kAllLevels) {
      auto serial = GcgtBfs(cgr, 0, OptionsFor(level, 1));
      auto parallel = GcgtBfs(cgr, 0, OptionsFor(level, 4));
      ASSERT_TRUE(serial.ok());
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(serial.value().depth, parallel.value().depth);
      EXPECT_EQ(serial.value().metrics.warp, parallel.value().metrics.warp);
      // Aggregate modeled cycles must be bit-identical, not just close.
      EXPECT_EQ(serial.value().metrics.model_ms,
                parallel.value().metrics.model_ms);
      EXPECT_EQ(serial.value().metrics.kernels,
                parallel.value().metrics.kernels);
    }
  }
}

TEST(ParallelEngine, CcDriverBitIdentical) {
  Graph g = TestGraph();
  for (uint32_t seg : kLayouts) {
    CgrGraph cgr = EncodeLayout(g, seg);
    auto serial = GcgtCc(cgr, OptionsFor(GcgtLevel::kFull, 1));
    auto parallel = GcgtCc(cgr, OptionsFor(GcgtLevel::kFull, 4));
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial.value().component, parallel.value().component);
    EXPECT_EQ(serial.value().rounds, parallel.value().rounds);
    EXPECT_EQ(serial.value().metrics.warp, parallel.value().metrics.warp);
    EXPECT_EQ(serial.value().metrics.model_ms,
              parallel.value().metrics.model_ms);
  }
}

TEST(ParallelEngine, BcDriverBitIdentical) {
  Graph g = TestGraph();
  for (uint32_t seg : kLayouts) {
    CgrGraph cgr = EncodeLayout(g, seg);
    auto serial = GcgtBc(cgr, 5, OptionsFor(GcgtLevel::kFull, 1));
    auto parallel = GcgtBc(cgr, 5, OptionsFor(GcgtLevel::kFull, 4));
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial.value().depth, parallel.value().depth);
    // sigma/delta are doubles accumulated in filter order; the serial replay
    // makes even their addition order identical, so exact equality holds.
    EXPECT_EQ(serial.value().sigma, parallel.value().sigma);
    EXPECT_EQ(serial.value().dependency, parallel.value().dependency);
    EXPECT_EQ(serial.value().metrics.warp, parallel.value().metrics.warp);
    EXPECT_EQ(serial.value().metrics.model_ms,
              parallel.value().metrics.model_ms);
  }
}

// The claim protocol must not depend on how chunks land on workers: any
// thread count produces the serial results.
TEST(ParallelEngine, ThreadCountSweepBitIdentical) {
  Graph g = TestGraph();
  CgrGraph cgr = EncodeLayout(g, 32);
  for (GcgtLevel level : {GcgtLevel::kFull, GcgtLevel::kHubSplit}) {
    auto serial = GcgtBfs(cgr, 0, OptionsFor(level, 1));
    ASSERT_TRUE(serial.ok());
    for (int threads : {2, 3, 8}) {
      auto parallel = GcgtBfs(cgr, 0, OptionsFor(level, threads));
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(serial.value().depth, parallel.value().depth) << threads;
      EXPECT_EQ(serial.value().metrics.warp, parallel.value().metrics.warp)
          << threads;
      EXPECT_EQ(serial.value().metrics.model_ms,
                parallel.value().metrics.model_ms)
          << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Hub split (GcgtLevel::kHubSplit): a node with more residual segments than
// lanes spreads them over helper warps. Labels must equal kFull's, and the
// parallel engine must still reproduce the serial one exactly.
// ---------------------------------------------------------------------------

struct HubCase {
  Graph graph;
  CgrGraph cgr;
  NodeId hub = 0;
};

// A star whose center lists its leaves as residuals (no intervals) in 8-byte
// segments: far more segments than the 8 test lanes.
HubCase StarCase() {
  Graph g = MakeStar(3000);
  CgrOptions options;
  options.min_interval_len = CgrOptions::kNoIntervals;
  options.segment_len_bytes = 8;
  auto cgr = CgrGraph::Encode(g, options);
  EXPECT_TRUE(cgr.ok()) << cgr.status().ToString();
  return {std::move(g), std::move(cgr.value()), 0};
}

// A twitter-style graph in the default layout; the hub is its
// highest-degree node.
HubCase TwitterCase() {
  TwitterGraphParams params;
  params.num_nodes = 4000;
  params.num_hubs = 4;
  params.seed = 91;
  Graph g = GenerateTwitterGraph(params);
  auto cgr = CgrGraph::Encode(g, CgrOptions{});
  EXPECT_TRUE(cgr.ok()) << cgr.status().ToString();
  NodeId hub = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.out_degree(u) > g.out_degree(hub)) hub = u;
  }
  return {std::move(g), std::move(cgr.value()), hub};
}

void ExpectHubSplitMatchesFull(const HubCase& c) {
  // A one-node hub frontier: one chunk, several warps, and the same round
  // on the serial and the parallel engine.
  std::vector<simt::WarpStats> warps_s, warps_p;
  std::vector<NodeId> next_s, next_p;
  BfsFilter f_serial(c.graph.num_nodes()), f_parallel(c.graph.num_nodes());
  f_serial.SetSource(c.hub);
  f_parallel.SetSource(c.hub);
  const std::vector<NodeId> frontier{c.hub};
  CgrTraversalEngine serial(c.cgr, OptionsFor(GcgtLevel::kHubSplit, 1));
  CgrTraversalEngine parallel(c.cgr, OptionsFor(GcgtLevel::kHubSplit, 4));
  serial.ProcessFrontier(frontier, f_serial, &next_s, &warps_s);
  parallel.ProcessFrontier(frontier, f_parallel, &next_p, &warps_p);
  EXPECT_GT(warps_s.size(), 1u) << "the hub was not split";
  EXPECT_EQ(next_s, next_p);
  EXPECT_EQ(warps_s, warps_p);
  for (size_t w = 1; w < warps_s.size(); ++w) {
    EXPECT_GT(warps_s[w].start_cycles, 0.0) << "helper " << w;
  }

  for (int threads : {1, 4}) {
    const GcgtOptions full = OptionsFor(GcgtLevel::kFull, threads);
    const GcgtOptions split = OptionsFor(GcgtLevel::kHubSplit, threads);
    auto bfs_full = GcgtBfs(c.cgr, c.hub, full);
    auto bfs_split = GcgtBfs(c.cgr, c.hub, split);
    ASSERT_TRUE(bfs_full.ok() && bfs_split.ok());
    EXPECT_EQ(bfs_full.value().depth, bfs_split.value().depth) << threads;

    auto cc_full = GcgtCc(c.cgr, full);
    auto cc_split = GcgtCc(c.cgr, split);
    ASSERT_TRUE(cc_full.ok() && cc_split.ok());
    EXPECT_EQ(cc_full.value().component, cc_split.value().component)
        << threads;

    auto bc_full = GcgtBc(c.cgr, c.hub, full);
    auto bc_split = GcgtBc(c.cgr, c.hub, split);
    ASSERT_TRUE(bc_full.ok() && bc_split.ok());
    const std::vector<double>& a = bc_full.value().dependency;
    const std::vector<double>& b = bc_split.value().dependency;
    ASSERT_EQ(a.size(), b.size());
    for (size_t v = 0; v < a.size(); ++v) {
      const double scale = std::max({1.0, std::fabs(a[v]), std::fabs(b[v])});
      ASSERT_LE(std::fabs(a[v] - b[v]), 1e-9 * scale)
          << "node " << v << ", " << threads << " threads";
    }
  }

  // Serial == parallel over whole traversals at the split level.
  auto bc_serial = GcgtBc(c.cgr, c.hub, OptionsFor(GcgtLevel::kHubSplit, 1));
  auto bc_parallel = GcgtBc(c.cgr, c.hub, OptionsFor(GcgtLevel::kHubSplit, 4));
  ASSERT_TRUE(bc_serial.ok() && bc_parallel.ok());
  EXPECT_EQ(bc_serial.value().dependency, bc_parallel.value().dependency);
  EXPECT_EQ(bc_serial.value().metrics.warp, bc_parallel.value().metrics.warp);
  EXPECT_EQ(bc_serial.value().metrics.model_ms,
            bc_parallel.value().metrics.model_ms);
}

TEST(HubSplit, StarCenterMatchesFull) { ExpectHubSplitMatchesFull(StarCase()); }

TEST(HubSplit, TwitterHubMatchesFull) {
  ExpectHubSplitMatchesFull(TwitterCase());
}

TEST(HubSplit, ShortensTheHubRound) {
  HubCase c = StarCase();
  const std::vector<NodeId> frontier{c.hub};
  auto round_cycles = [&](GcgtLevel level) {
    CgrTraversalEngine engine(c.cgr, OptionsFor(level, 1));
    BfsFilter filter(c.graph.num_nodes());
    filter.SetSource(c.hub);
    std::vector<NodeId> next;
    std::vector<simt::WarpStats> warps;
    engine.ProcessFrontier(frontier, filter, &next, &warps);
    simt::KernelTimeline timeline(engine.options().cost);
    timeline.AddKernel(warps);
    return timeline.total_cycles();
  };
  EXPECT_LT(round_cycles(GcgtLevel::kHubSplit),
            round_cycles(GcgtLevel::kFull) / 2);
}

// Byte codecs and the unsegmented layout have no segments to split: the
// level behaves exactly as kFull there.
TEST(HubSplit, UnsplittableLayoutsMatchFullExactly) {
  Graph g = TwitterCase().graph;
  for (CodecId codec : {CodecId::kCgr, CodecId::kStreamVByte}) {
    CgrOptions options;
    options.codec = codec;
    options.segment_len_bytes = 0;
    auto cgr = CgrGraph::Encode(g, options);
    ASSERT_TRUE(cgr.ok()) << cgr.status().ToString();
    auto full = GcgtBfs(cgr.value(), 0, OptionsFor(GcgtLevel::kFull, 4));
    auto split = GcgtBfs(cgr.value(), 0, OptionsFor(GcgtLevel::kHubSplit, 4));
    ASSERT_TRUE(full.ok() && split.ok());
    EXPECT_EQ(full.value().depth, split.value().depth);
    EXPECT_EQ(full.value().metrics.warp, split.value().metrics.warp);
    EXPECT_EQ(full.value().metrics.model_ms, split.value().metrics.model_ms);
  }
}

TEST(ParallelEngine, RepeatedParallelRunsAreStable) {
  Graph g = TestGraph();
  CgrGraph cgr = EncodeLayout(g, 32);
  auto first = GcgtBfs(cgr, 0, OptionsFor(GcgtLevel::kFull, 4));
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = GcgtBfs(cgr, 0, OptionsFor(GcgtLevel::kFull, 4));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(first.value().depth, again.value().depth);
    EXPECT_EQ(first.value().metrics.warp, again.value().metrics.warp);
    EXPECT_EQ(first.value().metrics.model_ms, again.value().metrics.model_ms);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool reentrancy guard.
// ---------------------------------------------------------------------------

TEST(ThreadPoolReentrancy, NestedParallelForRunsInlineUnderCallerTid) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, 1, [&](size_t outer_tid, size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      pool.ParallelFor(kInner, 8,
                       [&](size_t inner_tid, size_t ib, size_t ie) {
                         // The nested call must stay on the calling worker.
                         EXPECT_EQ(inner_tid, outer_tid);
                         for (size_t i = ib; i < ie; ++i) {
                           hits[o * kInner + i].fetch_add(1);
                         }
                       });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolReentrancy, DeeplyNestedAndRepeatedCallsDoNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(12, 1, [&](size_t, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        pool.ParallelFor(4, 1, [&](size_t, size_t b2, size_t e2) {
          for (size_t j = b2; j < e2; ++j) {
            pool.ParallelFor(2, 1, [&](size_t, size_t b3, size_t e3) {
              total.fetch_add(e3 - b3, std::memory_order_relaxed);
            });
          }
        });
      }
    });
  }
  EXPECT_EQ(total.load(), 50ull * 12 * 4 * 2);
}

TEST(ThreadPoolReentrancy, SequentialParallelForsFromMainThread) {
  // The caller-participation path sets and clears the thread-local pool
  // marker; back-to-back top-level calls must still fan out normally.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(hits.size(), 16, [&](size_t tid, size_t b, size_t e) {
      EXPECT_LT(tid, pool.num_threads());
      for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace gcgt
