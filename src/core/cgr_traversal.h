// The GCGT traversal engine: expands one frontier out of a CGR-compressed
// graph on the simulated SIMT machine, with the paper's scheduling
// strategies (Algorithms 1-4 + residual segmentation) selected by
// GcgtOptions::level. One instance is reusable across frontiers/queries.
//
// Execution model: warp chunks are simulated concurrently across a host
// thread pool (GcgtOptions::num_threads), each worker owning one reusable
// WarpSim and claim arena. The decode/scheduling walk of a warp is
// independent of the frontier filter, so workers enumerate (frontier,
// neighbor) pairs, charge all decode costs, and run the filter's
// chunk-scoped claim pass (atomic CAS / rank-min claims into per-chunk
// claim buffers) in parallel; a second parallel pass settles the
// order-independent decisions (the minimum-rank claimant of a label is the
// edge the serial engine would have accepted) and applies the label writes;
// the only sequential stage left is the prefix-sum merge of the per-chunk
// claim buffers into the global out-frontier, which also charges the
// decision-dependent costs and applies order-dependent filter effects (see
// FrontierFilter). Results — frontier contents and order, labels, per-warp
// stats, modeled cycles — are bit-identical to the serial engine
// (num_threads == 1), which is also the path used whenever a StepTrace is
// requested.
#ifndef GCGT_CORE_CGR_TRAVERSAL_H_
#define GCGT_CORE_CGR_TRAVERSAL_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "cgr/cgr_decoder.h"
#include "cgr/cgr_graph.h"
#include "core/frontier_filter.h"
#include "core/gcgt_options.h"
#include "core/trace.h"
#include "simt/machine.h"
#include "simt/warp.h"

namespace gcgt {

namespace internal {
struct EngineScratch;  // per-engine worker state, defined in cgr_traversal.cc
}

/// Aggregated result metrics shared by the BFS/CC/BC drivers.
struct TraversalMetrics {
  double model_ms = 0.0;       ///< simulated elapsed time
  int kernels = 0;             ///< kernel launches (BFS: one per level)
  uint64_t device_bytes = 0;   ///< modeled device footprint
  /// High-water mark of the out-of-core pager's resident set (0 when the
  /// pager is disabled).
  uint64_t resident_bytes_peak = 0;
  simt::WarpStats warp;        ///< aggregate warp statistics
};

class CgrTraversalEngine {
 public:
  CgrTraversalEngine(const CgrGraph& graph, const GcgtOptions& options);
  ~CgrTraversalEngine();

  CgrTraversalEngine(const CgrTraversalEngine&) = delete;
  CgrTraversalEngine& operator=(const CgrTraversalEngine&) = delete;

  /// Expands `frontier`, passing every (frontier, neighbor) pair to `filter`
  /// and collecting accepted nodes into `out_frontier`. Appends one WarpStats
  /// per simulated warp to `warp_stats`. `trace` (optional) records the
  /// per-step tables of paper Fig. 4 and forces the serial path.
  /// Not safe for concurrent calls on one engine instance (the engine owns
  /// reusable per-call scratch).
  void ProcessFrontier(std::span<const NodeId> frontier, FrontierFilter& filter,
                       std::vector<NodeId>* out_frontier,
                       std::vector<simt::WarpStats>* warp_stats,
                       StepTrace* trace = nullptr) const;

  /// Process-wide count of engines constructed so far. The session layer's
  /// prepare-once/query-many contract is "zero engine constructions per
  /// query"; tests assert this counter stays flat across a query batch.
  static uint64_t ConstructedCount();

  /// Evicts the out-of-core pager's resident set and zeroes its counters.
  /// Called at every query start via TraversalPipeline::Reset — each query
  /// starts cold, so fault/spill counts stay a pure function of graph +
  /// options + query. No-op when the pager is disabled.
  void ResetPager() const;

  /// High-water mark of the pager's resident set since the last ResetPager
  /// (0 when disabled).
  uint64_t PagerResidentPeak() const;

  /// True when frontier expansion pages partitions through the out-of-core
  /// tier instead of holding all encoded bits device-resident.
  bool PagerEnabled() const {
    return graph_.partitioned() && options_.ooc_resident_bytes > 0;
  }

  /// Device bytes of the compressed adjacency data + bitStart offsets. With
  /// the out-of-core pager enabled only the resident budget counts for the
  /// adjacency data — the rest of the encoded bits live in the external tier
  /// and are paid for per touch via the fault/spill charge class instead.
  uint64_t BaseDeviceBytes() const {
    uint64_t adjacency = graph_.bits().size();
    if (PagerEnabled()) {
      adjacency = std::min<uint64_t>(adjacency, options_.ooc_resident_bytes);
    }
    return adjacency +
           (static_cast<uint64_t>(graph_.num_nodes()) + 1) * sizeof(uint64_t);
  }

  const CgrGraph& graph() const { return graph_; }
  const GcgtOptions& options() const { return options_; }

 private:
  internal::EngineScratch& Scratch() const;

  const CgrGraph& graph_;
  GcgtOptions options_;
  // Lazily-built reusable worker state (thread pool, per-thread WarpSims and
  // enumeration arenas). Mutable: ProcessFrontier is logically const but
  // reuses this scratch across levels to keep the hot path allocation-free.
  mutable std::unique_ptr<internal::EngineScratch> scratch_;
};

}  // namespace gcgt

#endif  // GCGT_CORE_CGR_TRAVERSAL_H_
