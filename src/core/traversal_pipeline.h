// The expansion–filtering–contraction pipeline of paper §6 (Fig. 7) as an
// explicit, reusable layer. A TraversalPipeline owns the pieces every GCGT
// workload driver used to re-implement by hand:
//  - the frontier ping-pong loop over CgrTraversalEngine::ProcessFrontier,
//  - the KernelTimeline collecting one kernel per round (plus any per-round
//    auxiliary kernels, e.g. CC's pointer jumping),
//  - the modeled device-footprint accounting and budget check,
//  - the per-round contraction policy applied to the out-frontier.
//
// BFS, Connected Components and Betweenness Centrality are thin
// configurations of this class: BFS runs to fixpoint with no contraction,
// CC with sort-unique contraction and a pointer-jump post-round kernel, and
// BC captures each forward level and then replays them backward.
#ifndef GCGT_CORE_TRAVERSAL_PIPELINE_H_
#define GCGT_CORE_TRAVERSAL_PIPELINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "cgr/cgr_graph.h"
#include "core/cgr_traversal.h"
#include "core/frontier_filter.h"
#include "core/gcgt_options.h"
#include "core/trace.h"
#include "simt/machine.h"
#include "util/cancel_token.h"
#include "util/status.h"

namespace gcgt {

/// What happens to a round's out-frontier before it becomes the next
/// round's input (paper Fig. 7 "contraction").
enum class ContractionPolicy {
  kNone,        ///< out-frontier is used as-is (BFS)
  kSortUnique,  ///< sort + deduplicate (CC's node-centric re-scan set)
  kCaptureLevels,  ///< additionally record every round's input frontier (BC)
};

class TraversalPipeline {
 public:
  /// Extra kernels to model after each round's traversal kernel (e.g. CC's
  /// commit + pointer jump). The returned per-warp stats are added to the
  /// timeline as one kernel.
  using PostRoundKernel = std::function<std::vector<simt::WarpStats>()>;

  /// Owns a fresh engine — the one-shot path used by the free-function
  /// drivers (GcgtBfs/GcgtCc/GcgtBc on a CgrGraph).
  TraversalPipeline(const CgrGraph& graph, const GcgtOptions& options)
      : owned_engine_(std::make_unique<CgrTraversalEngine>(graph, options)),
        engine_(owned_engine_.get()),
        timeline_(options.cost) {}

  /// Borrows a caller-owned persistent engine — the prepare-once/query-many
  /// path (GcgtSession): queries through this pipeline construct no engine
  /// and reuse its warp scratch. The engine must outlive the pipeline.
  explicit TraversalPipeline(const CgrTraversalEngine& engine)
      : engine_(&engine), timeline_(engine.options().cost) {}

  /// Clears per-query state (timeline, captured levels, footprint) while
  /// keeping frontier-buffer and engine-scratch capacity, so one pipeline
  /// serves many queries without reallocating. Call between queries.
  /// The cancel token survives Reset: drivers Reset() internally, so the
  /// caller installs the token once per query via SetCancelToken.
  void Reset() {
    timeline_.Reset();
    levels_.clear();
    device_bytes_ = 0;
    // New query epoch: the out-of-core pager starts every query cold.
    engine_->ResetPager();
  }

  /// Installs the token Run/RunBackward poll once per round (cooperative
  /// cancellation and deadlines). Install a default token to clear it; an
  /// aborted query leaves only per-query state, which Reset() clears — the
  /// pipeline and engine stay reusable after an abort.
  void SetCancelToken(CancelToken token) { cancel_ = std::move(token); }

  /// Models the device footprint as the engine's base bytes (compressed
  /// adjacency + offsets) plus `aux_bytes` (labels, queues, sigma/delta...)
  /// and checks it against the configured device memory.
  Status ReserveDevice(uint64_t aux_bytes, const char* workload) {
    device_bytes_ = engine_->BaseDeviceBytes() + aux_bytes;
    if (device_bytes_ > engine_->options().device.memory_bytes) {
      return Status::OutOfMemory(std::string(workload) +
                                 " footprint exceeds device memory");
    }
    return Status::OK();
  }

  /// Runs the expand–filter–contract loop until the frontier drains.
  /// Each round: poll the cancel token (Cancelled/DeadlineExceeded aborts
  /// mid-traversal between rounds) -> ProcessFrontier -> one timeline kernel
  /// -> optional `post_round` kernel -> contraction policy. Returns rounds
  /// executed. `trace` (Fig. 4 tables) forces the engine's serial path.
  Result<int> Run(std::vector<NodeId> frontier, FrontierFilter& filter,
                  ContractionPolicy contraction, StepTrace* trace = nullptr,
                  const PostRoundKernel& post_round = nullptr);

  /// Replays the levels captured by kCaptureLevels deepest-first through
  /// `filter`, discarding any out-frontier (BC's backward sweep). Polls the
  /// cancel token per level, like Run.
  Status RunBackward(FrontierFilter& filter);

  /// Input frontiers of each round, recorded under kCaptureLevels.
  const std::vector<std::vector<NodeId>>& levels() const { return levels_; }

  /// Aggregated metrics of everything run through this pipeline so far.
  TraversalMetrics Metrics() const {
    TraversalMetrics m;
    m.model_ms = timeline_.TotalMs();
    m.kernels = timeline_.num_kernels();
    m.device_bytes = device_bytes_;
    m.resident_bytes_peak = engine_->PagerResidentPeak();
    m.warp = timeline_.aggregate();
    return m;
  }

  const CgrTraversalEngine& engine() const { return *engine_; }

 private:
  /// The per-round abort check shared by Run and RunBackward: cooperative
  /// cancellation plus the kDecodeRound fault-injection point.
  Status CheckRound() const;

  std::unique_ptr<CgrTraversalEngine> owned_engine_;  // null when borrowing
  const CgrTraversalEngine* engine_;                  // never null
  CancelToken cancel_;
  simt::KernelTimeline timeline_;
  uint64_t device_bytes_ = 0;
  std::vector<std::vector<NodeId>> levels_;
  // Reused across rounds and queries (capacity persists through Reset()).
  std::vector<NodeId> next_;
  std::vector<simt::WarpStats> warps_;
};

}  // namespace gcgt

#endif  // GCGT_CORE_TRAVERSAL_PIPELINE_H_
