// Out-of-core tier tests: partition planning, sharded CGR encode
// (byte-identical to the serial encode across thread counts), the container
// format (round-trip, corruption rejection, atomic writes), the LRU
// partition pager's deterministic fault/spill/pin protocol, the engine's
// placement of each fault on the warp that touches it, and the serving
// contract — container-backed paged sessions produce BIT-IDENTICAL BFS/CC/BC
// results to in-core runs at every budget, an artifact too big for the
// device is still served on the requested backend once paged, and
// GcgtService registers containers and surfaces pager stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/gcgt_session.h"
#include "cgr/cgr_graph.h"
#include "core/cc_filter.h"
#include "core/cgr_traversal.h"
#include "core/gcgt_options.h"
#include "graph/generators.h"
#include "simt/machine.h"
#include "ooc/cgr_container.h"
#include "ooc/partition_pager.h"
#include "service/gcgt_service.h"

namespace gcgt {
namespace {

using ooc::CgrContainer;
using ooc::PartitionPager;

::testing::AssertionResult SameBytes(std::span<const uint8_t> a,
                                     std::span<const uint8_t> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (!std::equal(a.begin(), a.end(), b.begin())) {
    return ::testing::AssertionFailure() << "byte content differs";
  }
  return ::testing::AssertionSuccess();
}
using ooc::WriteCgrContainer;

Graph WebGraph(NodeId n = 1500, uint64_t seed = 11) {
  WebGraphParams p;
  p.num_nodes = n;
  p.seed = seed;
  return GenerateWebGraph(p);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint64_t> BitStarts(const CgrGraph& g) {
  std::vector<uint64_t> v(g.num_nodes() + 1);
  for (NodeId u = 0; u <= g.num_nodes(); ++u) v[u] = g.bit_start(u);
  return v;
}

// ---------------------------------------------------------------------------
// Partition planning

TEST(PlanPartitions, CoversAllNodesContiguouslyAndBalancesEdges) {
  Graph g = WebGraph();
  for (int num_parts : {1, 2, 3, 8, 17}) {
    auto parts = PlanPartitions(g, num_parts);
    ASSERT_EQ(parts.size(), static_cast<size_t>(num_parts));
    EXPECT_EQ(parts.front().node_begin, 0u);
    EXPECT_EQ(parts.back().node_end, g.num_nodes());
    EdgeId covered = 0;
    for (size_t i = 0; i < parts.size(); ++i) {
      EXPECT_LT(parts[i].node_begin, parts[i].node_end);  // never empty
      if (i > 0) {
        EXPECT_EQ(parts[i].node_begin, parts[i - 1].node_end);
      }
      covered += g.offsets()[parts[i].node_end] - g.offsets()[parts[i].node_begin];
    }
    EXPECT_EQ(covered, g.num_edges());
    // Deterministic.
    EXPECT_EQ(parts, PlanPartitions(g, num_parts));
  }
}

TEST(PlanPartitions, ClampsPartitionCountToNodeCount) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  auto parts = PlanPartitions(g, 64);
  EXPECT_EQ(parts.size(), 3u);  // at most one node per partition
  auto one = PlanPartitions(g, 0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].node_end, g.num_nodes());
}

// ---------------------------------------------------------------------------
// Sharded encode

TEST(EncodePartitioned, ByteIdenticalToSerialAcrossThreadsAndPlans) {
  Graph web = WebGraph();
  TwitterGraphParams tp;
  tp.num_nodes = 900;
  tp.seed = 5;
  Graph twitter = GenerateTwitterGraph(tp);

  CgrOptions segmented;  // default: intervals + 32-byte residual segments
  CgrOptions unsegmented;
  unsegmented.segment_len_bytes = 0;
  CgrOptions bytes;
  bytes.codec = CodecId::kStreamVByte;

  for (const Graph* g : {&web, &twitter}) {
    for (const CgrOptions& opt : {segmented, unsegmented, bytes}) {
      auto serial = CgrGraph::Encode(*g, opt);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      for (int parts : {1, 2, 3, 8}) {
        for (int threads : {1, 2, 4, 8}) {
          auto sharded = CgrGraph::EncodePartitioned(*g, opt, parts, threads);
          ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
          EXPECT_TRUE(SameBytes(sharded.value().bits(), serial.value().bits()))
              << "parts=" << parts << " threads=" << threads;
          EXPECT_EQ(BitStarts(sharded.value()), BitStarts(serial.value()));
          EXPECT_TRUE(sharded.value().partitioned());
          // Node ranges follow the plan (byte ranges are filled by the
          // encode, so compare the planned dimension only).
          const auto plan = PlanPartitions(*g, parts);
          ASSERT_EQ(sharded.value().partitions().size(), plan.size());
          for (size_t i = 0; i < plan.size(); ++i) {
            EXPECT_EQ(sharded.value().partitions()[i].node_begin,
                      plan[i].node_begin);
            EXPECT_EQ(sharded.value().partitions()[i].node_end,
                      plan[i].node_end);
          }
        }
      }
    }
  }
}

TEST(Assemble, RejectsInconsistentInputs) {
  Graph g = WebGraph(300);
  auto encoded = CgrGraph::EncodePartitioned(g, {}, 4);
  ASSERT_TRUE(encoded.ok());
  const CgrGraph& e = encoded.value();
  std::vector<uint8_t> bits(e.bits().begin(), e.bits().end());
  std::vector<uint64_t> starts = BitStarts(e);
  auto parts = e.partitions();

  // Good inputs assemble.
  EXPECT_TRUE(CgrGraph::Assemble({}, g.num_nodes(), g.num_edges(), bits,
                                 starts, parts)
                  .ok());
  // Truncated payload.
  auto short_bits = bits;
  short_bits.pop_back();
  EXPECT_TRUE(CgrGraph::Assemble({}, g.num_nodes(), g.num_edges(), short_bits,
                                 starts, parts)
                  .status()
                  .IsInvalidArgument());
  // Non-monotone offsets.
  auto bad_starts = starts;
  std::swap(bad_starts[1], bad_starts[2]);
  EXPECT_TRUE(CgrGraph::Assemble({}, g.num_nodes(), g.num_edges(), bits,
                                 bad_starts, parts)
                  .status()
                  .IsInvalidArgument());
  // Partition table with a hole.
  auto bad_parts = parts;
  bad_parts[1].node_begin += 1;
  EXPECT_TRUE(CgrGraph::Assemble({}, g.num_nodes(), g.num_edges(), bits,
                                 starts, bad_parts)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Container format

TEST(CgrContainerTest, RoundTripMmapAndBuffered) {
  Graph g = WebGraph();
  CgrOptions opt;
  opt.scheme = VlcScheme::kZeta2;
  auto encoded = CgrGraph::EncodePartitioned(g, opt, 8);
  ASSERT_TRUE(encoded.ok());
  const std::string path = TempPath("roundtrip.gcoc");
  ASSERT_TRUE(WriteCgrContainer(encoded.value(), 0xfeedface, path).ok());

  for (auto mode : {CgrContainer::ReadMode::kMmap,
                    CgrContainer::ReadMode::kBuffered}) {
    auto opened = CgrContainer::Open(path, mode);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const CgrContainer& c = opened.value();
    EXPECT_EQ(c.fingerprint(), 0xfeedfaceu);
    EXPECT_EQ(c.num_nodes(), g.num_nodes());
    EXPECT_EQ(c.num_edges(), g.num_edges());
    EXPECT_EQ(c.options().scheme, VlcScheme::kZeta2);
    EXPECT_EQ(c.bit_start(), BitStarts(encoded.value()));
    EXPECT_EQ(c.partitions(), encoded.value().partitions());
    ASSERT_EQ(c.PayloadBytes(), encoded.value().bits().size());
    EXPECT_TRUE(std::equal(c.payload().begin(), c.payload().end(),
                           encoded.value().bits().begin()));
    auto back = c.ToCgrGraph();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(SameBytes(back.value().bits(), encoded.value().bits()));
    EXPECT_EQ(BitStarts(back.value()), BitStarts(encoded.value()));
    EXPECT_EQ(back.value().partitions(), encoded.value().partitions());
  }
  std::remove(path.c_str());
}

TEST(CgrContainerTest, DegenerateGraphsRoundTrip) {
  // Single node, no edges; and a graph with many empty adjacency rows.
  Graph single = Graph::FromEdges(1, {});
  Graph sparse = Graph::FromEdges(64, {{0, 63}, {63, 0}});
  for (const Graph* g : {&single, &sparse}) {
    auto encoded = CgrGraph::Encode(*g, {});
    ASSERT_TRUE(encoded.ok());
    const std::string path = TempPath("degenerate.gcoc");
    ASSERT_TRUE(WriteCgrContainer(encoded.value(), 7, path).ok());
    auto opened = CgrContainer::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    // An unpartitioned graph is written as one whole-range partition.
    ASSERT_EQ(opened.value().partitions().size(), 1u);
    EXPECT_EQ(opened.value().partitions()[0].node_end, g->num_nodes());
    auto back = opened.value().ToCgrGraph();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(SameBytes(back.value().bits(), encoded.value().bits()));
    std::remove(path.c_str());
  }
}

TEST(CgrContainerTest, CorruptionReturnsInvalidArgument) {
  Graph g = WebGraph(400);
  auto encoded = CgrGraph::EncodePartitioned(g, {}, 4);
  ASSERT_TRUE(encoded.ok());
  const std::string good_path = TempPath("good.gcoc");
  ASSERT_TRUE(WriteCgrContainer(encoded.value(), 1, good_path).ok());
  std::FILE* f = std::fopen(good_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> image(static_cast<size_t>(size));
  ASSERT_EQ(std::fread(image.data(), 1, image.size(), f), image.size());
  std::fclose(f);

  auto write_image = [](const std::string& path,
                        const std::vector<uint8_t>& bytes) {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    }
    std::fclose(out);
  };
  auto expect_rejected = [&](const std::vector<uint8_t>& bytes,
                             const char* what) {
    const std::string path = TempPath("corrupt.gcoc");
    write_image(path, bytes);
    for (auto mode : {CgrContainer::ReadMode::kMmap,
                      CgrContainer::ReadMode::kBuffered}) {
      auto r = CgrContainer::Open(path, mode);
      EXPECT_TRUE(r.status().IsInvalidArgument())
          << what << ": " << r.status().ToString();
    }
    std::remove(path.c_str());
  };

  expect_rejected({}, "empty file");
  expect_rejected({'G', 'C'}, "2-byte file");
  for (size_t cut : {size_t{10}, size_t{63}, size_t{64}, image.size() / 2,
                     image.size() - 1}) {
    expect_rejected(
        std::vector<uint8_t>(image.begin(), image.begin() + cut), "truncated");
  }
  {
    auto bad = image;
    bad[0] ^= 0xff;  // magic
    expect_rejected(bad, "bad magic");
  }
  {
    auto bad = image;
    bad[4] = 0x7f;  // version
    expect_rejected(bad, "bad version");
  }
  {
    auto bad = image;
    bad[32] ^= 0x01;  // num_nodes, caught by the header hash
    expect_rejected(bad, "hash mismatch");
  }
  {
    auto bad = image;
    bad.push_back(0);  // trailing garbage breaks the exact size tiling
    expect_rejected(bad, "trailing byte");
  }
  std::remove(good_path.c_str());
}

TEST(CgrContainerTest, WriteToMissingDirectoryFailsCleanly) {
  Graph g = Graph::FromEdges(2, {{0, 1}});
  auto encoded = CgrGraph::Encode(g, {});
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(
      WriteCgrContainer(encoded.value(), 1, "/nonexistent/dir/x.gcoc").ok());
}

// ---------------------------------------------------------------------------
// Partition pager

TEST(PartitionPagerTest, DeterministicLruFaultsAndSpills) {
  // Three 100-byte partitions of 10 nodes each, budget for exactly two.
  std::vector<CgrPartition> parts = {
      {0, 10, 0, 100}, {10, 20, 100, 200}, {20, 30, 200, 300}};
  PartitionPager pager;
  pager.Configure(parts, /*resident_budget_bytes=*/200,
                  /*cache_line_bytes=*/64);
  ASSERT_TRUE(pager.enabled());

  // Cold faults: directory line + ceil(100/64)=2 payload lines.
  auto t0 = pager.TouchNode(0);
  EXPECT_EQ(t0.faults, 1u);
  EXPECT_EQ(t0.fault_txns, 3u);
  EXPECT_EQ(t0.spills, 0u);
  EXPECT_EQ(t0.pins, 1u);
  auto t1 = pager.TouchNode(15);
  EXPECT_EQ(t1.faults, 1u);
  EXPECT_EQ(pager.resident_bytes(), 200u);

  // Second touch of a resident partition: free, and pins only once a round.
  auto t2 = pager.TouchNode(3);
  EXPECT_EQ(t2.faults, 0u);
  EXPECT_EQ(t2.pins, 0u);
  pager.EndRound();

  // Partition 2 faults; LRU victim is partition 1 (0 was re-touched last).
  auto t3 = pager.TouchNode(25);
  EXPECT_EQ(t3.faults, 1u);
  EXPECT_EQ(t3.spills, 1u);
  EXPECT_EQ(t3.spill_txns, 2u);  // ceil(100/64)
  EXPECT_EQ(pager.resident_bytes(), 200u);
  pager.EndRound();  // unpin 2 so the next round's fault can evict it
  // Partition 1 must re-fault (it was the victim), partition 0 must not.
  EXPECT_EQ(pager.TouchNode(0).faults, 0u);
  EXPECT_EQ(pager.TouchNode(10).faults, 1u);
  pager.EndRound();

  EXPECT_EQ(pager.resident_bytes_peak(), 200u);
  EXPECT_EQ(pager.faults(), 4u);
  EXPECT_EQ(pager.spills(), 2u);

  // Reset: everything cold again, counters cleared.
  pager.Reset();
  EXPECT_EQ(pager.resident_bytes(), 0u);
  EXPECT_EQ(pager.faults(), 0u);
  EXPECT_EQ(pager.TouchNode(0).faults, 1u);
}

TEST(PartitionPagerTest, PinnedPartitionsOvercommitInsteadOfThrashing) {
  std::vector<CgrPartition> parts = {
      {0, 10, 0, 100}, {10, 20, 100, 200}, {20, 30, 200, 300}};
  PartitionPager pager;
  pager.Configure(parts, /*resident_budget_bytes=*/150, /*cache_line_bytes=*/64);
  // One round touches all three partitions: everything it faulted is pinned,
  // so the resident set overcommits the 150-byte budget within the round.
  pager.TouchNode(0);
  pager.TouchNode(10);
  auto t = pager.TouchNode(20);
  EXPECT_EQ(t.faults, 1u);
  EXPECT_EQ(pager.resident_bytes(), 300u);
  EXPECT_EQ(pager.resident_bytes_peak(), 300u);
  pager.EndRound();
  // After a cold restart the same budget evicts freely again once the
  // pinning round has ended.
  pager.Reset();
  pager.TouchNode(0);
  pager.EndRound();
  pager.TouchNode(10);  // evicts 0: 100 + 100 <= 150 fails, victim unpinned
  EXPECT_EQ(pager.resident_bytes(), 100u);
}

TEST(PartitionPagerTest, ZeroBudgetDisables) {
  std::vector<CgrPartition> parts = {{0, 10, 0, 100}};
  PartitionPager pager;
  pager.Configure(parts, 0, 64);
  EXPECT_FALSE(pager.enabled());
}

// ---------------------------------------------------------------------------
// Engine charge placement: a paged round charges each touch to the owner
// warp of the chunk holding the touched node, never to a standalone entry.

// A twitter-style graph (super-hubs, default segmented layout) encoded in 8
// partitions, a budget of a quarter of its bytes, and two CC rounds: a
// warm-up over the upper half of the nodes, which leaves unpinned
// partitions resident, then a whole-frontier round (every node, as CC's
// first round expands) that starts at the highest-degree node, so the
// chunk that splits off helper warps faults too, and that spills.
struct PagedTwitter {
  Graph graph;
  CgrGraph cgr;
  uint64_t budget = 0;
  std::vector<NodeId> warm_up;
  std::vector<NodeId> whole;
};

PagedTwitter MakePagedTwitter() {
  TwitterGraphParams params;
  params.num_nodes = 4000;
  params.num_hubs = 4;
  params.seed = 91;
  PagedTwitter c;
  c.graph = GenerateTwitterGraph(params);
  auto cgr = CgrGraph::EncodePartitioned(c.graph, CgrOptions{}, 8);
  EXPECT_TRUE(cgr.ok()) << cgr.status().ToString();
  c.cgr = std::move(cgr.value());
  c.budget = c.cgr.bits().size() / 4;
  const NodeId n = c.graph.num_nodes();
  NodeId hub = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (c.graph.out_degree(u) > c.graph.out_degree(hub)) hub = u;
  }
  c.warm_up.resize(n - n / 2);
  std::iota(c.warm_up.begin(), c.warm_up.end(), n / 2);
  c.whole.resize(n);
  std::iota(c.whole.begin(), c.whole.end(), 0);
  std::rotate(c.whole.begin(), c.whole.begin() + hub, c.whole.end());
  return c;
}

// The warps of the whole-frontier round, run after the warm-up round.
std::vector<simt::WarpStats> WholeRoundWarps(const PagedTwitter& c,
                                             const GcgtOptions& o) {
  CgrTraversalEngine engine(c.cgr, o);
  CcFilter filter(c.graph.num_nodes());
  std::vector<NodeId> next;
  std::vector<simt::WarpStats> warps;
  engine.ProcessFrontier(c.warm_up, filter, &next, &warps);
  next.clear();
  warps.clear();
  engine.ProcessFrontier(c.whole, filter, &next, &warps);
  return warps;
}

simt::WarpStats PageCharges(const simt::WarpStats& w) {
  simt::WarpStats page;
  page.partition_faults = w.partition_faults;
  page.partition_spills = w.partition_spills;
  page.partition_pins = w.partition_pins;
  page.fault_txns = w.fault_txns;
  page.spill_txns = w.spill_txns;
  return page;
}

TEST(OocEngine, PagedRoundChargesEachTouchToItsOwnerWarp) {
  const PagedTwitter c = MakePagedTwitter();
  const NodeId n = c.graph.num_nodes();
  for (GcgtLevel level : {GcgtLevel::kFull, GcgtLevel::kHubSplit}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(GcgtLevelName(level)) + ", " +
                   std::to_string(threads) + " threads");
      GcgtOptions o;
      o.level = level;
      o.lanes = 8;  // 8-lane warps split the graph's hubs
      o.num_threads = threads;
      const std::vector<simt::WarpStats> incore = WholeRoundWarps(c, o);
      o.ooc_resident_bytes = c.budget;
      const std::vector<simt::WarpStats> paged = WholeRoundWarps(c, o);

      // One entry per warp unit: no standalone pager entry.
      ASSERT_EQ(paged.size(), incore.size());
      const size_t lanes = static_cast<size_t>(o.lanes);
      const size_t chunks = (n + lanes - 1) / lanes;
      if (level == GcgtLevel::kFull) {
        EXPECT_EQ(paged.size(), chunks);
      }

      // The same touches on a stand-alone pager, summed per chunk.
      PartitionPager ref;
      ref.Configure(c.cgr.partitions(), c.budget, o.cost.cache_line_bytes);
      for (NodeId u : c.warm_up) ref.TouchNode(u);
      ref.EndRound();
      const uint64_t warm_faults = ref.faults(), warm_spills = ref.spills();
      const uint64_t warm_pins = ref.pins();
      std::vector<simt::WarpStats> want(chunks);
      for (size_t i = 0; i < c.whole.size(); ++i) {
        const PartitionPager::Touch t = ref.TouchNode(c.whole[i]);
        simt::WarpStats& page = want[i / lanes];
        page.partition_faults += t.faults;
        page.partition_spills += t.spills;
        page.partition_pins += t.pins;
        page.fault_txns += t.fault_txns;
        page.spill_txns += t.spill_txns;
      }
      ASSERT_GT(ref.spills(), warm_spills);

      // Owners (start 0) carry their chunk's page charges on top of the
      // in-core charges; helpers carry none and start after their owner's
      // fault cycles.
      simt::WarpStats sum;
      size_t chunk = 0, owners = 0, paged_helpers = 0;
      for (size_t w = 0; w < paged.size(); ++w) {
        const simt::WarpStats page = PageCharges(paged[w]);
        simt::WarpStats rest = paged[w];
        rest.partition_faults = rest.partition_pins = rest.partition_spills = 0;
        rest.fault_txns = rest.spill_txns = 0;
        rest.start_cycles = incore[w].start_cycles;
        EXPECT_EQ(rest, incore[w]) << "warp " << w;
        sum += page;
        if (incore[w].start_cycles == 0) {
          chunk = owners++;
          ASSERT_LT(chunk, chunks);
          EXPECT_EQ(page, want[chunk]) << "owner of chunk " << chunk;
          continue;
        }
        EXPECT_EQ(page, simt::WarpStats{}) << "helper " << w;
        const double fault_cycles = want[chunk].Cycles(o.cost);
        EXPECT_NEAR(paged[w].start_cycles - incore[w].start_cycles,
                    fault_cycles, 1e-9 * paged[w].start_cycles)
            << "helper " << w;
        if (fault_cycles > 0) ++paged_helpers;
      }
      EXPECT_EQ(owners, chunks);
      if (level == GcgtLevel::kHubSplit) {
        EXPECT_GT(paged_helpers, 0u);
      }
      EXPECT_EQ(sum.partition_faults, ref.faults() - warm_faults);
      EXPECT_EQ(sum.partition_spills, ref.spills() - warm_spills);
      EXPECT_EQ(sum.partition_pins, ref.pins() - warm_pins);
      simt::WarpStats want_sum;
      for (const simt::WarpStats& page : want) want_sum += page;
      EXPECT_EQ(sum.fault_txns, want_sum.fault_txns);
      EXPECT_EQ(sum.spill_txns, want_sum.spill_txns);
    }
  }
}

// The win itself: spread over the round's warps, the fault stream no longer
// bounds the kernel from below.
TEST(OocEngine, WholeFrontierRoundMakespanBelowItsFaultCycles) {
  const PagedTwitter c = MakePagedTwitter();
  GcgtOptions o;
  o.ooc_resident_bytes = c.budget;
  const std::vector<simt::WarpStats> warps = WholeRoundWarps(c, o);
  simt::KernelTimeline timeline(o.cost);
  timeline.AddKernel(warps);
  const double makespan = timeline.total_cycles() - o.cost.kernel_launch_cycles;
  double fault_cycles = 0;
  for (const simt::WarpStats& w : warps) {
    fault_cycles += o.cost.cycles_per_mem_txn *
                    o.cost.external_latency_multiplier *
                    static_cast<double>(w.fault_txns + w.spill_txns);
  }
  EXPECT_GT(timeline.aggregate().partition_spills, 0u);
  EXPECT_LT(makespan, fault_cycles);
}

// ---------------------------------------------------------------------------
// Session-level serving contract

void ExpectSameAnswers(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.kind(), want.kind());
  switch (want.kind()) {
    case QueryKind::kBfs:
      EXPECT_EQ(got.bfs().depth, want.bfs().depth);
      break;
    case QueryKind::kCc:
      EXPECT_EQ(got.cc().component, want.cc().component);
      break;
    case QueryKind::kBc:
      EXPECT_EQ(got.bc().dependency, want.bc().dependency);
      EXPECT_EQ(got.bc().sigma, want.bc().sigma);
      EXPECT_EQ(got.bc().depth, want.bc().depth);
      break;
    case QueryKind::kTriangle:
      EXPECT_EQ(got.triangle().triangles, want.triangle().triangles);
      EXPECT_EQ(got.triangle().per_vertex, want.triangle().per_vertex);
      break;
    case QueryKind::kCommonNeighbor:
      EXPECT_EQ(got.common_neighbors().common, want.common_neighbors().common);
      break;
    case QueryKind::kJaccard:
      EXPECT_EQ(got.jaccard().common, want.jaccard().common);
      EXPECT_EQ(got.jaccard().jaccard, want.jaccard().jaccard);
      break;
    case QueryKind::kSimilarityTopK:
      EXPECT_EQ(got.similarity_topk().items, want.similarity_topk().items);
      break;
    case QueryKind::kKCore:
      EXPECT_EQ(got.kcore().in_core, want.kcore().in_core);
      EXPECT_EQ(got.kcore().core_size, want.kcore().core_size);
      break;
  }
}

TEST(OocSession, PagedResultsBitIdenticalToInCoreAtEveryBudget) {
  Graph g = WebGraph();
  auto incore = GcgtSession::Prepare(g, {});
  ASSERT_TRUE(incore.ok());
  const std::vector<Query> queries = {BfsQuery{1}, CcQuery{}, BcQuery{{1, 7}}};
  std::vector<QueryResult> want;
  for (const Query& q : queries) {
    auto r = incore.value().Run(q, {.backend = Backend::kCgrSimt});
    ASSERT_TRUE(r.ok());
    want.push_back(std::move(r).value());
  }

  const uint64_t encoded_bytes = incore.value().cgr().bits().size();
  for (uint64_t divisor : {1, 2, 4, 8}) {
    PrepareOptions popt;
    popt.ooc_partitions = 8;
    popt.gcgt.ooc_resident_bytes = std::max<uint64_t>(encoded_bytes / divisor, 1);
    auto paged = GcgtSession::Prepare(g, popt);
    ASSERT_TRUE(paged.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = paged.value().Run(queries[i], {.backend = Backend::kCgrSimt});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectSameAnswers(r.value(), want[i]);
      // Every query starts cold, so even the 100% budget faults partitions
      // in, and the pager's high-water mark is reported.
      EXPECT_GT(r.value().metrics().warp.partition_faults, 0u);
      EXPECT_GT(r.value().metrics().resident_bytes_peak, 0u);
      // Shrinking the budget can only increase the modeled cost.
      EXPECT_GE(r.value().metrics().model_ms, want[i].metrics().model_ms);
    }
  }
}

TEST(OocSession, PagedRunsDeterministicAcrossThreadCounts) {
  // BFS on a web graph; CC and BC on a twitter-style graph whose hubs the
  // 8-lane warps split across helper warps, so paged hub rounds are covered
  // too.
  TwitterGraphParams tp;
  tp.num_nodes = 4000;
  tp.num_hubs = 4;
  tp.seed = 91;
  struct Case {
    Graph graph;
    std::vector<Query> queries;
  };
  std::vector<Case> cases;
  cases.push_back({WebGraph(1000, 23), {BfsQuery{2}}});
  cases.push_back({GenerateTwitterGraph(tp), {CcQuery{}, BcQuery{{0, 7}}}});
  for (const Case& c : cases) {
    for (GcgtLevel level : {GcgtLevel::kFull, GcgtLevel::kHubSplit}) {
      std::vector<QueryResult> baseline;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(GcgtLevelName(level)) + ", " +
                     std::to_string(threads) + " threads");
        PrepareOptions popt;
        popt.ooc_partitions = 8;
        popt.gcgt.level = level;
        popt.gcgt.lanes = 8;
        popt.gcgt.ooc_resident_bytes = 1 + c.graph.num_edges() / 8;
        popt.gcgt.num_threads = threads;
        auto session = GcgtSession::Prepare(c.graph, popt);
        ASSERT_TRUE(session.ok());
        for (size_t i = 0; i < c.queries.size(); ++i) {
          auto r = session.value().Run(c.queries[i],
                                       {.backend = Backend::kCgrSimt});
          ASSERT_TRUE(r.ok());
          if (threads == 1) {
            // CC's first round pins every partition, so only BFS and BC
            // fault again later and spill.
            if (r.value().kind() != QueryKind::kCc) {
              EXPECT_GT(r.value().metrics().warp.partition_spills, 0u);
            }
            baseline.push_back(std::move(r).value());
            continue;
          }
          const TraversalMetrics& a = baseline[i].metrics();
          const TraversalMetrics& b = r.value().metrics();
          EXPECT_EQ(a.warp.partition_faults, b.warp.partition_faults);
          EXPECT_EQ(a.warp.partition_spills, b.warp.partition_spills);
          EXPECT_EQ(a.warp.fault_txns, b.warp.fault_txns);
          EXPECT_EQ(a.warp.spill_txns, b.warp.spill_txns);
          EXPECT_EQ(a.resident_bytes_peak, b.resident_bytes_peak);
          EXPECT_EQ(a.model_ms, b.model_ms);
          EXPECT_EQ(a.straggler_cycles, b.straggler_cycles);
          ExpectSameAnswers(r.value(), baseline[i]);
        }
      }
    }
  }
}

TEST(OocSession, FingerprintSeparatesPartitionPlansAndBudgets) {
  Graph g = WebGraph(600);
  auto fp = [&](int parts, uint64_t budget) {
    PrepareOptions popt;
    popt.ooc_partitions = parts;
    popt.gcgt.ooc_resident_bytes = budget;
    auto s = GcgtSession::Prepare(g, popt);
    EXPECT_TRUE(s.ok());
    return s.value().artifact_fingerprint();
  };
  const uint64_t plain = fp(0, 0);
  EXPECT_NE(plain, fp(4, 0));
  EXPECT_NE(fp(4, 0), fp(8, 0));
  EXPECT_NE(fp(4, 0), fp(4, 4096));
  EXPECT_EQ(fp(4, 4096), fp(4, 4096));
}

TEST(OocSession, OversizedArtifactServedOnceBudgeted) {
  Graph g = WebGraph();
  // Measure the modeled footprints with ample device memory first.
  PrepareOptions probe;
  probe.ooc_partitions = 8;
  auto probe_session = GcgtSession::Prepare(g, probe);
  ASSERT_TRUE(probe_session.ok());
  auto probe_run =
      probe_session.value().Run(BfsQuery{1}, {.backend = Backend::kCgrSimt});
  ASSERT_TRUE(probe_run.ok());
  const uint64_t incore_footprint = probe_run.value().metrics().device_bytes;
  const uint64_t encoded_bytes = probe_session.value().cgr().bits().size();
  const uint64_t budget = encoded_bytes / 8;
  ASSERT_GT(encoded_bytes - budget, 1u);

  // A device that fits everything EXCEPT the full encoded adjacency: the
  // in-core session OOMs, the paged session serves the requested backend.
  const uint64_t device_bytes = incore_footprint - (encoded_bytes - budget) / 2;
  PrepareOptions small;
  small.ooc_partitions = 8;
  small.gcgt.device.memory_bytes = device_bytes;
  auto incore = GcgtSession::Prepare(g, small);
  ASSERT_TRUE(incore.ok());
  EXPECT_TRUE(incore.value()
                  .Run(BfsQuery{1}, {.backend = Backend::kCgrSimt})
                  .status()
                  .IsOutOfMemory());

  small.gcgt.ooc_resident_bytes = budget;
  auto paged = GcgtSession::Prepare(g, small);
  ASSERT_TRUE(paged.ok());
  auto served = paged.value().Run(BfsQuery{1}, {.backend = Backend::kCgrSimt});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(served.value().degraded());
  EXPECT_GT(served.value().metrics().warp.partition_faults, 0u);
  ExpectSameAnswers(served.value(), probe_run.value());
}

// ---------------------------------------------------------------------------
// Service integration

TEST(OocService, RegisterContainerServesAndReportsPagerStats) {
  Graph g = WebGraph();
  PrepareOptions popt;
  popt.ooc_partitions = 8;
  auto master = GcgtSession::Prepare(g, popt);
  ASSERT_TRUE(master.ok());
  const std::string path = TempPath("service.gcoc");
  ASSERT_TRUE(WriteCgrContainer(master.value().cgr(),
                                master.value().artifact_fingerprint(), path)
                  .ok());

  ServiceOptions sopt;
  sopt.num_workers = 2;
  GcgtService service(sopt);
  GcgtOptions serving;
  serving.ooc_resident_bytes =
      std::max<uint64_t>(master.value().cgr().bits().size() / 4, 1);
  auto id = service.RegisterContainer(path, serving);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Registering the same container under the same options dedups.
  auto again = service.RegisterContainer(path, serving);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), id.value());
  // A different budget is a different artifact.
  GcgtOptions other = serving;
  other.ooc_resident_bytes += 1;
  auto distinct = service.RegisterContainer(path, other);
  ASSERT_TRUE(distinct.ok());
  EXPECT_NE(distinct.value(), id.value());

  // Container-backed answers match direct runs on the master artifact
  // (both address the prepared id space).
  auto oracle_bfs =
      master.value().Run(BfsQuery{3}, {.backend = Backend::kCgrSimt});
  auto oracle_cc = master.value().Run(CcQuery{}, {.backend = Backend::kCgrSimt});
  ASSERT_TRUE(oracle_bfs.ok());
  ASSERT_TRUE(oracle_cc.ok());
  auto served_bfs = service.Submit({id.value(), BfsQuery{3}}).get();
  auto served_cc = service.Submit({id.value(), CcQuery{}}).get();
  ASSERT_TRUE(served_bfs.ok()) << served_bfs.status().ToString();
  ASSERT_TRUE(served_cc.ok());
  EXPECT_FALSE(served_bfs.value().degraded());
  ExpectSameAnswers(served_bfs.value(), oracle_bfs.value());
  ExpectSameAnswers(served_cc.value(), oracle_cc.value());
  EXPECT_GT(served_bfs.value().metrics().warp.partition_faults, 0u);

  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.partition_faults, 0u);
  EXPECT_GT(stats.resident_bytes_peak, 0u);
  EXPECT_EQ(stats.completed, 2u);
  service.Shutdown();
  std::remove(path.c_str());
}

TEST(OocService, CorruptContainerRegistrationFails) {
  const std::string path = TempPath("corrupt_service.gcoc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a container", f);
  std::fclose(f);
  ServiceOptions sopt;
  GcgtService service(sopt);
  EXPECT_TRUE(service.RegisterContainer(path).status().IsInvalidArgument());
  service.Shutdown();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcgt
