// Codec-layer differential tests:
//  - randomized encode -> decode round-trip oracle across all three codecs,
//    the GcgtLevels and both CGR layouts (the decoded adjacency must always
//    equal the input adjacency);
//  - traversal codec-invariance: BFS/CC/BC answers are identical across
//    codecs (only metrics may differ — the codecs change the cost profile,
//    never the results);
//  - the artifact fingerprint incorporates the codec id (artifacts of
//    different codecs must never alias).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "api/gcgt_session.h"
#include "cgr/byte_codecs.h"
#include "cgr/cgr_decoder.h"
#include "cgr/cgr_graph.h"
#include "cgr/codec.h"
#include "core/bc.h"
#include "core/bfs.h"
#include "core/cc.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/random.h"

namespace gcgt {
namespace {

Graph TestGraph(uint64_t seed) {
  // Dense enough that hubs exist and every value-byte-length class of the
  // byte codecs occurs.
  return GenerateErdosRenyi(/*num_nodes=*/600, /*num_edges=*/6000, seed);
}

std::vector<CgrOptions> AllLayouts(CodecId codec) {
  std::vector<CgrOptions> out;
  if (codec == CodecId::kCgr) {
    for (int seg : {0, 32}) {
      CgrOptions o;
      o.codec = codec;
      o.segment_len_bytes = seg;
      out.push_back(o);
    }
  } else {
    CgrOptions o;
    o.codec = codec;
    out.push_back(o);
  }
  return out;
}

TEST(Codec, RandomizedRoundTripOracle) {
  for (uint64_t seed : {7u, 21u}) {
    Graph g = TestGraph(seed);
    for (CodecId codec : kAllCodecs) {
      for (const CgrOptions& opt : AllLayouts(codec)) {
        auto cgr = CgrGraph::Encode(g, opt);
        ASSERT_TRUE(cgr.ok()) << CodecName(codec);
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          std::vector<NodeId> want(g.Neighbors(u).begin(),
                                   g.Neighbors(u).end());
          std::sort(want.begin(), want.end());
          EXPECT_EQ(DecodeAdjacency(cgr.value(), u), want)
              << CodecName(codec) << " node " << u;
          EXPECT_EQ(DecodeDegree(cgr.value(), u), want.size());
        }
      }
    }
  }
}

TEST(Codec, ByteCodecStreamMatchesDecodeAdjacency) {
  Graph g = TestGraph(3);
  for (CodecId codec : {CodecId::kStreamVByte, CodecId::kVarintGb}) {
    CgrOptions opt;
    opt.codec = codec;
    auto cgr = CgrGraph::Encode(g, opt);
    ASSERT_TRUE(cgr.ok());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ByteCodecStream bs(cgr.value(), u);
      std::vector<NodeId> got;
      while (bs.HasNext()) {
        ByteBlock blk = bs.NextBlock();
        for (uint32_t i = 0; i < blk.count; ++i) got.push_back(blk.vals[i]);
      }
      EXPECT_EQ(got, DecodeAdjacency(cgr.value(), u)) << CodecName(codec);
    }
  }
}

TEST(Codec, TraversalResultsAreCodecInvariant) {
  Graph g = TestGraph(11);
  const NodeId source = 5;

  // Reference answers from the default CGR codec.
  CgrOptions ref_opt;
  auto ref_cgr = CgrGraph::Encode(g, ref_opt);
  ASSERT_TRUE(ref_cgr.ok());
  GcgtOptions go;
  auto ref_bfs = GcgtBfs(ref_cgr.value(), source, go);
  auto ref_cc = GcgtCc(ref_cgr.value(), go);
  auto ref_bc = GcgtBc(ref_cgr.value(), source, go);
  ASSERT_TRUE(ref_bfs.ok() && ref_cc.ok() && ref_bc.ok());

  for (CodecId codec : {CodecId::kStreamVByte, CodecId::kVarintGb}) {
    CgrOptions opt;
    opt.codec = codec;
    auto cgr = CgrGraph::Encode(g, opt);
    ASSERT_TRUE(cgr.ok());
    for (GcgtLevel level : {GcgtLevel::kIntuitive, GcgtLevel::kFull}) {
      GcgtOptions o;
      o.level = level;  // byte codecs collapse the levels into one walk
      auto bfs = GcgtBfs(cgr.value(), source, o);
      auto cc = GcgtCc(cgr.value(), o);
      auto bc = GcgtBc(cgr.value(), source, o);
      ASSERT_TRUE(bfs.ok() && cc.ok() && bc.ok()) << CodecName(codec);
      EXPECT_EQ(bfs.value().depth, ref_bfs.value().depth) << CodecName(codec);
      EXPECT_EQ(cc.value().component, ref_cc.value().component)
          << CodecName(codec);
      EXPECT_EQ(bc.value().dependency, ref_bc.value().dependency)
          << CodecName(codec);
      EXPECT_EQ(bc.value().sigma, ref_bc.value().sigma) << CodecName(codec);
      // Byte codecs charge fewer decode slots but still decode something.
      EXPECT_GT(bfs.value().metrics.warp.decode_words, 0u);
    }
  }
}

TEST(Codec, SessionResultsAreCodecInvariant) {
  Graph g = TestGraph(13);
  PrepareOptions base;
  auto ref = GcgtSession::Prepare(g, base);
  ASSERT_TRUE(ref.ok());
  RunOptions run;
  auto ref_bfs = ref.value().Run(Query{BfsQuery{4}}, run);
  auto ref_cc = ref.value().Run(Query{CcQuery{}}, run);
  auto ref_bc = ref.value().Run(Query{BcQuery{{4, 9}}}, run);
  ASSERT_TRUE(ref_bfs.ok() && ref_cc.ok() && ref_bc.ok());

  for (CodecId codec : {CodecId::kStreamVByte, CodecId::kVarintGb}) {
    PrepareOptions opt;
    opt.cgr.codec = codec;
    auto session = GcgtSession::Prepare(g, opt);
    ASSERT_TRUE(session.ok()) << CodecName(codec);
    auto bfs = session.value().Run(Query{BfsQuery{4}}, run);
    auto cc = session.value().Run(Query{CcQuery{}}, run);
    auto bc = session.value().Run(Query{BcQuery{{4, 9}}}, run);
    ASSERT_TRUE(bfs.ok() && cc.ok() && bc.ok()) << CodecName(codec);
    EXPECT_EQ(bfs.value().bfs().depth, ref_bfs.value().bfs().depth);
    EXPECT_EQ(cc.value().cc().component, ref_cc.value().cc().component);
    EXPECT_EQ(bc.value().bc().dependency, ref_bc.value().bc().dependency);
  }
}

TEST(Codec, FingerprintIncorporatesCodecKnobs) {
  Graph g = GenerateErdosRenyi(64, 256, 1);
  PrepareOptions base;
  const uint64_t fp_cgr = ComputeArtifactFingerprint(g, base);

  PrepareOptions svb = base;
  svb.cgr.codec = CodecId::kStreamVByte;
  PrepareOptions vgb = base;
  vgb.cgr.codec = CodecId::kVarintGb;
  const uint64_t fp_svb = ComputeArtifactFingerprint(g, svb);
  const uint64_t fp_vgb = ComputeArtifactFingerprint(g, vgb);
  EXPECT_NE(fp_cgr, fp_svb);
  EXPECT_NE(fp_cgr, fp_vgb);
  EXPECT_NE(fp_svb, fp_vgb);
}

TEST(Codec, ByteCodecFirstDeltaOverflowIsRejected) {
  std::vector<uint8_t> out;
  // Node 0 with a neighbor >= 2^31: zigzag(first delta) exceeds 32 bits.
  const std::vector<NodeId> neighbors = {static_cast<NodeId>(0x80000001u)};
  Status s = EncodeNodeBytes(CodecId::kStreamVByte, 0, neighbors, &out);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace gcgt
