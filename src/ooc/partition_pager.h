// Capacity-bounded resident set of CGR partitions (the out-of-core tier's
// paging policy). Models EMOGI-style on-demand access (PAPERS.md): frontier
// expansion touches partitions, non-resident ones fault in from the external
// tier, and an LRU policy spills resident partitions when the budget is
// exceeded — with an explicit pin/unpin protocol so partitions touched by
// the current round are never its own eviction victims.
//
// Determinism contract (DESIGN.md): the pager is driven serially in frontier
// order by the engine's prologue, so the fault/spill sequence, all counters,
// and the eviction order are a pure function of the graph, the options, and
// the query, bit-identical across thread counts. The pager is a *modeled*
// overlay: the encoded bits stay in host RAM and decode behaves identically;
// what the pager changes is the device-budget accounting (TraversalPipeline
// counts only the resident budget) and the external-tier charges in
// WarpStats.
#ifndef GCGT_OOC_PARTITION_PAGER_H_
#define GCGT_OOC_PARTITION_PAGER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cgr/cgr_graph.h"

namespace gcgt::ooc {

/// LRU pager over a fixed partition table. Configure once per engine, Reset
/// per query (every query starts cold: even a 100%-budget run pays one fault
/// per touched partition), TouchNode per frontier node in serial frontier
/// order, EndRound after each frontier.
class PartitionPager {
 public:
  /// External-tier traffic caused by one TouchNode call; the engine folds
  /// these into the round's maintenance WarpStats entry.
  struct Touch {
    uint64_t faults = 0;      ///< 1 when the node's partition faulted in
    uint64_t fault_txns = 0;  ///< directory line + payload lines moved in
    uint64_t spills = 0;      ///< partitions evicted to make room
    uint64_t spill_txns = 0;  ///< payload lines written back out
    uint64_t pins = 0;        ///< 1 the first time a round pins the partition
  };

  /// `partitions` must outlive the pager (it aliases the CgrGraph's table).
  /// A zero budget or empty table disables the pager.
  void Configure(std::span<const CgrPartition> partitions,
                 uint64_t resident_budget_bytes, int cache_line_bytes) {
    partitions_ = partitions;
    budget_bytes_ = resident_budget_bytes;
    line_bytes_ = cache_line_bytes > 0 ? cache_line_bytes : 1;
    starts_.clear();
    starts_.reserve(partitions.size());
    for (const CgrPartition& p : partitions) starts_.push_back(p.node_begin);
    const size_t n = partitions.size();
    resident_.assign(n, false);
    pinned_.assign(n, false);
    prev_.assign(n + 1, kNil);
    next_.assign(n + 1, kNil);
    pinned_round_.reserve(n);
    Reset();
  }

  bool enabled() const { return budget_bytes_ > 0 && !partitions_.empty(); }

  /// Evicts everything and zeroes all counters — per-query cold start.
  void Reset() {
    std::fill(resident_.begin(), resident_.end(), false);
    std::fill(pinned_.begin(), pinned_.end(), false);
    const size_t sentinel = partitions_.size();
    std::fill(prev_.begin(), prev_.end(), kNil);
    std::fill(next_.begin(), next_.end(), kNil);
    if (!prev_.empty()) {
      prev_[sentinel] = sentinel;
      next_[sentinel] = sentinel;
    }
    pinned_round_.clear();
    resident_bytes_ = 0;
    resident_bytes_peak_ = 0;
    faults_ = 0;
    spills_ = 0;
    pins_ = 0;
    last_part_ = 0;
  }

  /// Serial frontier-order touch of node u's partition.
  Touch TouchNode(NodeId u) {
    Touch t;
    const size_t p = PartitionOf(u);
    if (resident_[p]) {
      Unlink(p);
      LinkFront(p);
    } else {
      const uint64_t bytes = partitions_[p].num_bytes();
      t.faults = 1;
      // One line for the partition-directory lookup plus the payload.
      t.fault_txns = 1 + (bytes + line_bytes_ - 1) / line_bytes_;
      // Evict back-most unpinned partitions until the fault fits. When only
      // pinned partitions remain the resident set overcommits (this round's
      // working set simply exceeds the budget) rather than deadlocking.
      while (resident_bytes_ + bytes > budget_bytes_) {
        const size_t victim = LruVictim();
        if (victim == kNil) break;
        const uint64_t victim_bytes = partitions_[victim].num_bytes();
        t.spills += 1;
        t.spill_txns += (victim_bytes + line_bytes_ - 1) / line_bytes_;
        Unlink(victim);
        resident_[victim] = false;
        resident_bytes_ -= victim_bytes;
      }
      resident_[p] = true;
      resident_bytes_ += bytes;
      resident_bytes_peak_ = std::max(resident_bytes_peak_, resident_bytes_);
      LinkFront(p);
    }
    if (!pinned_[p]) {
      pinned_[p] = true;
      pinned_round_.push_back(p);
      t.pins = 1;
    }
    faults_ += t.faults;
    spills_ += t.spills;
    pins_ += t.pins;
    return t;
  }

  /// Unpins everything the round pinned; resident set carries over.
  void EndRound() {
    for (size_t p : pinned_round_) pinned_[p] = false;
    pinned_round_.clear();
  }

  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t resident_bytes_peak() const { return resident_bytes_peak_; }
  uint64_t budget_bytes() const { return budget_bytes_; }
  /// Cumulative since Reset().
  uint64_t faults() const { return faults_; }
  uint64_t spills() const { return spills_; }
  uint64_t pins() const { return pins_; }

 private:
  static constexpr size_t kNil = static_cast<size_t>(-1);

  size_t PartitionOf(NodeId u) {
    const CgrPartition& memo = partitions_[last_part_];
    if (u >= memo.node_begin && u < memo.node_end) return last_part_;
    // Largest partition whose node_begin <= u (table is contiguous).
    const size_t p =
        static_cast<size_t>(
            std::upper_bound(starts_.begin(), starts_.end(), u) -
            starts_.begin()) -
        1;
    last_part_ = p;
    return p;
  }

  // Intrusive LRU list over partition ids; index partitions_.size() is the
  // sentinel. Front = most recent.
  void LinkFront(size_t p) {
    const size_t sentinel = partitions_.size();
    const size_t head = next_[sentinel];
    next_[sentinel] = p;
    prev_[p] = sentinel;
    next_[p] = head;
    prev_[head] = p;
  }
  void Unlink(size_t p) {
    next_[prev_[p]] = next_[p];
    prev_[next_[p]] = prev_[p];
    prev_[p] = kNil;
    next_[p] = kNil;
  }
  /// Back-most unpinned resident partition, or kNil.
  size_t LruVictim() const {
    const size_t sentinel = partitions_.size();
    for (size_t p = prev_[sentinel]; p != sentinel; p = prev_[p]) {
      if (!pinned_[p]) return p;
    }
    return kNil;
  }

  std::span<const CgrPartition> partitions_;
  uint64_t budget_bytes_ = 0;
  uint64_t line_bytes_ = 1;

  std::vector<NodeId> starts_;
  std::vector<bool> resident_;
  std::vector<bool> pinned_;
  std::vector<size_t> prev_;  // size partitions_.size() + 1 (sentinel last)
  std::vector<size_t> next_;
  std::vector<size_t> pinned_round_;
  size_t last_part_ = 0;

  uint64_t resident_bytes_ = 0;
  uint64_t resident_bytes_peak_ = 0;
  uint64_t faults_ = 0;
  uint64_t spills_ = 0;
  uint64_t pins_ = 0;
};

}  // namespace gcgt::ooc

#endif  // GCGT_OOC_PARTITION_PAGER_H_
