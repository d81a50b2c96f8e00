// Configuration of the GCGT traversal engine.
#ifndef GCGT_CORE_GCGT_OPTIONS_H_
#define GCGT_CORE_GCGT_OPTIONS_H_

#include "simt/cost_model.h"

namespace gcgt {

/// Cumulative optimization levels: the first five exactly as paper Fig. 9
/// applies them, then this implementation's hub split. Each level includes
/// everything below it.
enum class GcgtLevel : int {
  kIntuitive = 0,     ///< Alg. 1: one lane decodes one list serially
  kTwoPhase = 1,      ///< + Alg. 2: separate interval / residual phases
  kTaskStealing = 2,  ///< + Alg. 3: idle lanes steal residual appends
  kWarpCentric = 3,   ///< + Alg. 4: speculative parallel VLC decoding
  kFull = 4,          ///< + residual segmentation scheduling (= GCGT)
  /// + hub split: a segmented-layout node with more residual segments than
  /// the warp has lanes keeps its first `lanes` segments on its own warp and
  /// publishes the rest to a kernel-wide task list; every further `lanes`
  /// segments run on one helper warp of the same kernel. Byte codecs and
  /// the unsegmented layout behave exactly as under kFull.
  kHubSplit = 5,
};

inline const char* GcgtLevelName(GcgtLevel level) {
  switch (level) {
    case GcgtLevel::kIntuitive: return "Intuitive";
    case GcgtLevel::kTwoPhase: return "TwoPhaseTraversal";
    case GcgtLevel::kTaskStealing: return "TaskStealing";
    case GcgtLevel::kWarpCentric: return "Warp-centric";
    case GcgtLevel::kFull: return "ResidualSegmentation (GCGT)";
    case GcgtLevel::kHubSplit: return "HubSplit";
  }
  return "?";
}

struct GcgtOptions {
  GcgtLevel level = GcgtLevel::kHubSplit;
  /// Lanes per warp; 32 in production, 8/16 in the paper's worked examples.
  int lanes = simt::kWarpSize;
  /// A lane's residual list is handed to warp-centric decoding when at least
  /// this many residuals remain after the stealing stage.
  int warp_centric_min_residuals = 32;
  /// Host threads simulating warps concurrently. 0 = hardware concurrency,
  /// 1 = the serial reference engine. Results (frontiers, labels, per-warp
  /// stats, modeled cycles) are bit-identical for every value; StepTrace
  /// recording always runs on the serial path.
  int num_threads = 0;
  /// Out-of-core tier: device-resident budget (bytes) for the encoded
  /// adjacency data of a PARTITIONED graph (CgrGraph::partitioned()). 0
  /// disables paging — the whole bit stream is device-resident, exactly as
  /// before. When enabled, only min(budget, encoded bytes) counts against
  /// the device-memory check; frontier expansion faults non-resident
  /// partitions in through the PartitionPager (LRU spill, pin/unpin per
  /// round) and the moved lines are charged as the external-tier class
  /// (WarpStats::fault_txns/spill_txns, CostModel::
  /// external_latency_multiplier) to the warp whose chunk holds the touched
  /// node; no warp waits for a fault another warp issued in the same
  /// round. Results and labels stay bit-identical to the in-core engine at
  /// every budget; only wall time and the new modeled charges differ. The
  /// pager is reset at every query start, so every query starts cold and
  /// metrics stay deterministic.
  uint64_t ooc_resident_bytes = 0;
  /// Intersection queries (src/intersect) normally intersect the COMPRESSED
  /// adjacency representations directly (interval-vs-interval run overlap,
  /// interval-vs-residual membership probes, residual-vs-residual stream
  /// merge). true forces the full-decode-then-merge baseline instead: decode
  /// both lists to scratch, then element-merge — the A/B knob bench_intersect
  /// uses to show the decode-free win. Results are bit-identical either way;
  /// only modeled metrics move (so the flag participates in artifact
  /// fingerprints).
  bool intersect_full_decode = false;
  simt::CostModel cost;
  simt::DeviceSpec device;
};

}  // namespace gcgt

#endif  // GCGT_CORE_GCGT_OPTIONS_H_
