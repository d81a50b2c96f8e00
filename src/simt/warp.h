// Warp-level accounting context and warp primitives.
//
// Engines express their kernels as explicit lockstep loops over lane arrays
// (the same shape as the paper's Algorithms 1-4) and charge each warp-wide
// operation through this context:
//   Step(active)      one SIMT instruction slot with `active` live lanes
//   MemAccess(addrs)  one warp-wide device-memory access; cost = number of
//                     distinct cache lines (coalescing model, Appendix A)
//   SharedOp()        shared-memory / shuffle / ballot / scan round
//   Atomic(n)         n global atomics
#ifndef GCGT_SIMT_WARP_H_
#define GCGT_SIMT_WARP_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "simt/cost_model.h"

namespace gcgt::simt {

/// Set of cache-line ids touched by one warp execution, tracked in coalesced
/// runs. The coalescing hardware this models merges a warp's lane accesses
/// into whole-line transactions, so the common streams here are *runs* of
/// consecutive lines (frontier loads, interval expansions, decode windows,
/// queue appends) with a scattered minority (label gathers). The structure
/// mirrors that:
///   - a sorted list of disjoint touched intervals holds the coalesced runs
///     (InsertRun merges/extends in one pass, so charging a whole run is
///     O(overlapping intervals), not O(lines));
///   - a flat open-addressed, epoch-stamped table holds the scattered single
///     lines (O(1) Clear, no per-insert allocation);
///   - one-entry filters (the last touched interval and the last single
///     line) absorb consecutive lanes re-hitting the same line, so the L1
///     re-touch case never reaches the table at all.
/// Invariant: every touched line is covered by an interval or live in the
/// table; novel-line counts (the warp's mem_txns) are exact, so the charge
/// is bit-identical to inserting every line one at a time.
/// Line ids must stay below 2^63 (the nominal address bases in
/// memory_layout.h top out near 2^43) so the +1 adjacency probes can't wrap.
class LineSet {
 public:
  LineSet() { ResetTable(kInitialSlots); }

  /// Returns true when `line` was not yet in the set.
  bool Insert(uint64_t line) { return InsertRun(line, 1) != 0; }

  /// Inserts the run [first_line, first_line + n_lines) and returns how many
  /// of its lines were not yet in the set (the cold-line transactions).
  uint64_t InsertRun(uint64_t first_line, uint64_t n_lines) {
    if (n_lines == 0) return 0;
    const uint64_t last_line = first_line + n_lines - 1;
    // One-entry interval filter: streams overwhelmingly re-touch or extend
    // the interval they last touched.
    if (first_line >= run_lo_ && last_line <= run_hi_) return 0;
    if (n_lines < kMinIntervalRun) {
      // Short runs (at 128B lines: line-straddling decode reads, one-warp
      // windows) are charged line by line through the table; materializing
      // an interval for every 2-line straddle would churn the interval
      // vector millions of times per traversal for no lookup benefit.
      uint64_t novel = 0;
      for (uint64_t l = first_line; l <= last_line; ++l) {
        novel += InsertSingle(l);
      }
      return novel;
    }
    return InsertRunSlow(first_line, last_line);
  }

  /// Empties the set in O(1)+O(intervals) by bumping the slot epoch.
  void Clear() {
    size_ = 0;
    hash_used_ = 0;
    hash_min_ = kNoLine;
    hash_max_ = 0;
    intervals_.clear();
    run_lo_ = 1;
    run_hi_ = 0;
    last_line_ = kNoLine;
    // ~0u is the never-live sentinel ResetTable/Grow stamp into empty slots;
    // when the counter reaches it, rewrite the stamps and restart below it.
    if (++epoch_ == ~uint32_t{0}) {
      std::fill(epochs_.begin(), epochs_.end(), ~uint32_t{0});
      epoch_ = 0;
    }
  }

  size_t size() const { return size_; }

 private:
  static constexpr size_t kInitialSlots = 256;
  static constexpr uint64_t kMinIntervalRun = 4;
  static constexpr uint64_t kNoLine = ~uint64_t{0};

  struct Interval {
    uint64_t lo;
    uint64_t hi;  // inclusive
  };

  static size_t Hash(uint64_t x) {
    x *= 0x9e3779b97f4a7c15ull;  // Fibonacci hashing; line ids are dense
    return static_cast<size_t>(x >> 32);
  }

  /// Index of the first interval with hi + 1 >= line (i.e. the first that
  /// could contain, overlap or be left-adjacent to a range starting at
  /// `line`); intervals_.size() when none.
  size_t FindInterval(uint64_t line) const {
    return static_cast<size_t>(
        std::lower_bound(intervals_.begin(), intervals_.end(), line,
                         [](const Interval& iv, uint64_t l) {
                           return iv.hi + 1 < l;
                         }) -
        intervals_.begin());
  }

  uint64_t InsertSingle(uint64_t line) {
    if (line == last_line_) return 0;
    last_line_ = line;
    // Hash first: a re-touched scattered line (the hot miss of the one-entry
    // filters) resolves in one probe, exactly like the pre-run-aware set.
    // Only genuinely cold lines continue to the interval lookup below.
    size_t slot;
    if (HashFind(line, &slot)) return 0;
    const size_t idx = FindInterval(line);
    if (idx < intervals_.size()) {
      Interval& iv = intervals_[idx];
      if (line >= iv.lo && line <= iv.hi) {
        run_lo_ = iv.lo;
        run_hi_ = iv.hi;
        return 0;
      }
      if (line == iv.hi + 1 || line + 1 == iv.lo) {
        // Adjacent to an interval: extend it in place.
        if (line == iv.hi + 1) {
          iv.hi = line;
          if (idx + 1 < intervals_.size() &&
              intervals_[idx + 1].lo == line + 1) {
            iv.hi = intervals_[idx + 1].hi;
            intervals_.erase(intervals_.begin() + idx + 1);
          }
        } else {
          iv.lo = line;
        }
        run_lo_ = iv.lo;
        run_hi_ = iv.hi;
        ++size_;
        return 1;
      }
    }
    // Scattered cold line: place it in the empty slot the probe found.
    lines_[slot] = line;
    epochs_[slot] = epoch_;
    hash_min_ = std::min(hash_min_, line);
    hash_max_ = std::max(hash_max_, line);
    ++hash_used_;
    if (hash_used_ * 4 >= lines_.size() * 3) Grow();
    ++size_;
    return 1;
  }

  uint64_t InsertRunSlow(uint64_t first_line, uint64_t last_line) {
    const size_t idx = FindInterval(first_line);
    uint64_t new_lo = first_line;
    uint64_t new_hi = last_line;
    uint64_t novel = 0;
    uint64_t gap = first_line;  // next line not yet covered by an interval
    size_t j = idx;
    for (; j < intervals_.size() && intervals_[j].lo <= last_line + 1; ++j) {
      const Interval& iv = intervals_[j];
      if (gap <= last_line && iv.lo > gap) {
        novel += NovelInGap(gap, std::min(last_line, iv.lo - 1));
      }
      gap = std::max(gap, iv.hi + 1);
      new_lo = std::min(new_lo, iv.lo);
      new_hi = std::max(new_hi, iv.hi);
    }
    if (gap <= last_line) novel += NovelInGap(gap, last_line);
    // Replace the absorbed intervals [idx, j) with the merged one.
    if (j == idx) {
      intervals_.insert(intervals_.begin() + idx, Interval{new_lo, new_hi});
    } else {
      intervals_[idx] = Interval{new_lo, new_hi};
      intervals_.erase(intervals_.begin() + idx + 1, intervals_.begin() + j);
    }
    run_lo_ = new_lo;
    run_hi_ = new_hi;
    size_ += novel;
    return novel;
  }

  /// [lo, hi] is covered by no interval; counts its lines that are not
  /// already present as scattered singles either. The per-line probe only
  /// runs when the run actually overlaps the table's line bounds — the
  /// nominal address regions (memory_layout.h) are disjoint, so a long run
  /// (queue, COO array) almost never overlaps the scattered label singles.
  uint64_t NovelInGap(uint64_t lo, uint64_t hi) const {
    uint64_t novel = hi - lo + 1;
    if (hash_used_ != 0 && lo <= hash_max_ && hi >= hash_min_) {
      size_t slot;
      for (uint64_t l = lo; l <= hi; ++l) {
        if (HashFind(l, &slot)) --novel;
      }
    }
    return novel;
  }

  /// Probes for `line`; true when present. On a miss, *slot is the empty
  /// slot where it belongs (valid until the next insert or Grow).
  bool HashFind(uint64_t line, size_t* slot) const {
    const size_t mask = lines_.size() - 1;
    size_t i = Hash(line) & mask;
    while (epochs_[i] == epoch_) {
      if (lines_[i] == line) {
        *slot = i;
        return true;
      }
      i = (i + 1) & mask;
    }
    *slot = i;
    return false;
  }

  void ResetTable(size_t slots) {
    lines_.assign(slots, 0);
    epochs_.assign(slots, ~uint32_t{0});
    epoch_ = 0;
    hash_used_ = 0;
  }

  void Grow() {
    std::vector<uint64_t> old_lines = std::move(lines_);
    std::vector<uint32_t> old_epochs = std::move(epochs_);
    const uint32_t old_epoch = epoch_;
    ResetTable(old_lines.size() * 2);
    const size_t mask = lines_.size() - 1;
    for (size_t j = 0; j < old_lines.size(); ++j) {
      if (old_epochs[j] != old_epoch) continue;
      size_t i = Hash(old_lines[j]) & mask;
      while (epochs_[i] == epoch_) i = (i + 1) & mask;
      lines_[i] = old_lines[j];
      epochs_[i] = epoch_;
      ++hash_used_;
    }
  }

  // Coalesced runs: sorted, disjoint, inclusive intervals (adjacent ones are
  // merged on insert).
  std::vector<Interval> intervals_;
  // Scattered singles: open-addressed table with epoch-stamped slots. May
  // hold stale entries later covered by an interval; that is harmless ("in
  // the table" and "covered" both mean touched, and gap counting only probes
  // lines no interval covers).
  std::vector<uint64_t> lines_;
  std::vector<uint32_t> epochs_;
  uint32_t epoch_ = 0;
  size_t hash_used_ = 0;        // live table slots this epoch (incl. stale)
  size_t size_ = 0;             // total distinct lines this epoch
  uint64_t hash_min_ = kNoLine; // line bounds of the table's live entries
  uint64_t hash_max_ = 0;
  // One-entry filters: the last touched interval and the last single line.
  uint64_t run_lo_ = 1;
  uint64_t run_hi_ = 0;
  uint64_t last_line_ = kNoLine;
};

/// Exact per-warp line-dedup filter for one dense array region (labels,
/// offsets, CSR columns...): elements of a fixed power-of-two size packed
/// from an aligned base, so element index -> cache line is a shift and no
/// element straddles a line boundary. Engines pair it with
/// WarpContext::ChargeTransactions to bypass the generic LineSet for these
/// regions: an epoch-stamped direct-index array answers "did this warp
/// already touch that line" in one load. Counting is bit-identical to
/// feeding every access through the LineSet PROVIDED the region's lines are
/// charged exclusively through one filter instance per warp context (the
/// nominal bases in memory_layout.h keep regions line-disjoint).
class DenseRegionFilter {
 public:
  /// `elems_per_line` = line_bytes / element_bytes; must be a power of two
  /// (otherwise call with 0 to disable and keep the generic path).
  void Configure(uint64_t elems_per_line, size_t num_elems) {
    if (elems_per_line == 0 || !std::has_single_bit(elems_per_line)) {
      shift_ = -1;
      return;
    }
    shift_ = std::countr_zero(elems_per_line);
    seen_.assign((num_elems >> shift_) + 1, 0);
    epoch_ = 0;
  }

  bool enabled() const { return shift_ >= 0; }

  /// Starts a new warp epoch (call wherever the paired WarpContext's
  /// TakeStats marks a warp boundary).
  void NextWarp() {
    if (++epoch_ == 0) {  // wrapped: rewrite the stale stamps
      std::fill(seen_.begin(), seen_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// Marks element `i`'s line as touched; returns 1 when it was cold.
  uint64_t Touch(size_t i) {
    const size_t l = i >> shift_;
    if (l >= seen_.size()) seen_.resize(l + 1, 0);
    if (seen_[l] == epoch_) return 0;
    seen_[l] = epoch_;
    return 1;
  }

  /// Marks the lines of elements [first, last] (inclusive); returns how
  /// many were cold.
  uint64_t TouchRange(size_t first, size_t last) {
    const size_t lo = first >> shift_;
    const size_t hi = last >> shift_;
    if (hi >= seen_.size()) seen_.resize(hi + 1, 0);
    uint64_t novel = 0;
    for (size_t l = lo; l <= hi; ++l) {
      if (seen_[l] != epoch_) {
        seen_[l] = epoch_;
        ++novel;
      }
    }
    return novel;
  }

 private:
  int shift_ = -1;
  std::vector<uint32_t> seen_;
  uint32_t epoch_ = 0;
};

/// Aggregated per-warp (and, summed, per-kernel) execution statistics.
struct WarpStats {
  uint64_t steps = 0;             ///< issued instruction slots (incl. decode/append)
  uint64_t decode_steps = 0;      ///< slots that perform a VLC decode
  uint64_t append_steps = 0;      ///< slots that perform the filter/append
  uint64_t active_lane_steps = 0; ///< lanes doing useful work in those slots
  uint64_t idle_lane_steps = 0;   ///< divergence / starvation waste
  uint64_t mem_txns = 0;          ///< distinct 128B lines fetched
  uint64_t shared_ops = 0;
  uint64_t atomics = 0;
  /// 8-byte words spanned by charged decode reads (observability only — not
  /// priced; the lines are already in mem_txns).
  uint64_t decode_words = 0;
  // Out-of-core partition-pager charge class (src/ooc/partition_pager.h).
  // The external-tier traffic is its own class so mem_txns keeps meaning
  // "device-resident lines": a fault streams a non-resident partition's
  // compressed bytes in from the external tier, a spill writes a victim's
  // bytes back, and both are priced at cycles_per_mem_txn *
  // external_latency_multiplier. Pins are observability only (not priced):
  // the number of distinct partitions a round held resident.
  uint64_t partition_faults = 0;  ///< non-resident partitions faulted in
  uint64_t partition_spills = 0;  ///< resident partitions evicted to fit
  uint64_t partition_pins = 0;    ///< partitions pinned by a round's frontier
  uint64_t fault_txns = 0;        ///< external-tier lines moved by faults
  uint64_t spill_txns = 0;        ///< external-tier lines moved by spills
  // Compressed set-intersection charge class (src/intersect): warp-wide
  // intersection operations — interval-pair overlap tests, residual
  // membership probes, element-merge and segment-skip steps. A separate
  // class (priced at cycles_per_intersect_op) so intersection work never
  // masquerades as decode or memory traffic and the decode-free savings
  // stay visible in the model.
  uint64_t intersect_txns = 0;    ///< warp-wide set-intersection operations
  /// Modeled cycles from kernel start before this warp can issue its first
  /// instruction: a hub-split helper warp waits for its owner warp to
  /// publish the task it runs (GcgtLevel::kHubSplit). 0 for every other
  /// warp. A schedule offset, not a count: Cycles() excludes it and += does
  /// not sum it.
  double start_cycles = 0;

  double Cycles(const CostModel& m) const {
    // decode/append slots are priced at their own rates.
    return m.cycles_per_step *
               static_cast<double>(steps - decode_steps - append_steps) +
           m.cycles_per_decode_step * static_cast<double>(decode_steps) +
           m.cycles_per_append_step * static_cast<double>(append_steps) +
           m.cycles_per_shared_op * static_cast<double>(shared_ops) +
           m.cycles_per_mem_txn * static_cast<double>(mem_txns) +
           m.cycles_per_atomic * static_cast<double>(atomics) +
           m.cycles_per_intersect_op * static_cast<double>(intersect_txns) +
           m.cycles_per_mem_txn * m.external_latency_multiplier *
               static_cast<double>(fault_txns + spill_txns);
  }

  WarpStats& operator+=(const WarpStats& o) {
    steps += o.steps;
    decode_steps += o.decode_steps;
    append_steps += o.append_steps;
    active_lane_steps += o.active_lane_steps;
    idle_lane_steps += o.idle_lane_steps;
    mem_txns += o.mem_txns;
    shared_ops += o.shared_ops;
    atomics += o.atomics;
    decode_words += o.decode_words;
    partition_faults += o.partition_faults;
    partition_spills += o.partition_spills;
    partition_pins += o.partition_pins;
    fault_txns += o.fault_txns;
    spill_txns += o.spill_txns;
    intersect_txns += o.intersect_txns;
    return *this;
  }

  /// SIMT efficiency: fraction of lane-slots doing useful work.
  double LaneEfficiency() const {
    uint64_t total = active_lane_steps + idle_lane_steps;
    return total ? static_cast<double>(active_lane_steps) / total : 1.0;
  }

  bool operator==(const WarpStats&) const = default;
};

/// Counts the distinct cache lines covered by byte ranges [addr, addr+width).
uint64_t CountCacheLines(std::span<const uint64_t> addrs, uint32_t width,
                         int line_bytes);

/// Reconstructs one warp's decision-dependent queue-append transactions
/// without replaying its full LineSet. Valid because the nominal address
/// regions (memory_layout.h) are line-disjoint, so of a warp's queue-region
/// lines exactly two runs can already be warm when an append happens: the
/// input-queue prefix it loaded at chunk start, and the contiguous output
/// run of its earlier appends. Feed every append (in slot order) through
/// Charge(); it returns the cold-line transactions to add to WarpStats.
class QueueAppendCharges {
 public:
  QueueAppendCharges(uint64_t queue_base, uint32_t elem_bytes, int line_bytes,
                     uint64_t in_queue_elems)
      : base_(queue_base),
        elem_(elem_bytes),
        line_(line_bytes),
        in_last_((queue_base + elem_bytes * in_queue_elems - 1) / line_bytes) {}

  /// `count` elements appended at global queue offset `tail` (elements).
  uint64_t Charge(uint64_t tail, uint64_t count) {
    if (count == 0) return 0;
    const uint64_t lo = (base_ + elem_ * tail) / line_;
    const uint64_t hi = (base_ + elem_ * tail + elem_ * count - 1) / line_;
    uint64_t txns = 0;
    for (uint64_t l = lo; l <= hi; ++l) {
      const bool touched =
          l <= in_last_ || (out_any_ && l >= out_lo_ && l <= out_hi_);
      if (!touched) ++txns;
    }
    if (!out_any_) {
      out_lo_ = lo;
      out_any_ = true;
    }
    out_hi_ = std::max(out_hi_, hi);
    return txns;
  }

 private:
  uint64_t base_;
  uint64_t elem_;
  uint64_t line_;
  uint64_t in_last_;
  uint64_t out_lo_ = 0;
  uint64_t out_hi_ = 0;
  bool out_any_ = false;
};

/// Per-warp accounting + warp-synchronous primitives. `num_lanes` is 32 in
/// production; tests reproducing the paper's figures use 8 or 16.
class WarpContext {
 public:
  explicit WarpContext(int num_lanes = kWarpSize, int cache_line_bytes = 128)
      : num_lanes_(num_lanes),
        line_bytes_(static_cast<uint64_t>(cache_line_bytes)),
        line_shift_(
            std::has_single_bit(static_cast<uint64_t>(cache_line_bytes))
                ? std::countr_zero(static_cast<uint64_t>(cache_line_bytes))
                : -1) {
    ClearRecent();
  }

  int num_lanes() const { return num_lanes_; }

  /// One instruction slot; `active` lanes execute, the rest are idle.
  void Step(int active) {
    stats_.steps += 1;
    stats_.active_lane_steps += static_cast<uint64_t>(active);
    stats_.idle_lane_steps += static_cast<uint64_t>(num_lanes_ - active);
  }

  /// One VLC-decode slot (priced at CostModel::cycles_per_decode_step).
  void DecodeStep(int active) {
    Step(active);
    stats_.decode_steps += 1;
  }

  /// One filter/append slot (priced at CostModel::cycles_per_append_step).
  void AppendStepOp(int active) {
    Step(active);
    stats_.append_steps += 1;
  }

  /// Warp-wide access to per-lane addresses; charges one transaction per
  /// distinct cache line not yet touched by this warp (L1 reuse model).
  /// Adjacent-lane line ranges (the common, coalesced case: sorted per-lane
  /// addresses) are merged into runs on the fly and charged whole, so the
  /// per-line walk only happens inside LineSet's scattered fallback.
  void MemAccess(std::span<const uint64_t> addrs, uint32_t width) {
    MemAccessIndexed(addrs.size(), width,
                     [addrs](size_t i) { return addrs[i]; });
  }

  /// Warp-wide access where each lane touches its own byte range
  /// [first, second] (inclusive); used for variable-width VLC decode reads.
  void MemAccessRanges(std::span<const std::pair<uint64_t, uint64_t>> ranges) {
    if (ranges.empty()) return;
    uint64_t run_lo = LineOf(ranges[0].first);
    uint64_t run_hi = LineOf(ranges[0].second);
    for (size_t i = 1; i < ranges.size(); ++i) {
      const uint64_t lo = LineOf(ranges[i].first);
      const uint64_t hi = LineOf(ranges[i].second);
      if (lo <= run_hi + 1 && hi + 1 >= run_lo) {
        run_lo = std::min(run_lo, lo);
        run_hi = std::max(run_hi, hi);
      } else {
        TouchRun(run_lo, run_hi);
        run_lo = lo;
        run_hi = hi;
      }
    }
    TouchRun(run_lo, run_hi);
  }

  /// Warp-wide access to one contiguous range (e.g. queue append).
  void MemAccessRange(uint64_t addr, uint64_t bytes) {
    if (bytes == 0) return;
    TouchRun(LineOf(addr), LineOf(addr + bytes - 1));
  }

  /// MemAccess over computed per-lane addresses: addr_of(i) for i in
  /// [0, count). Same semantics (and bit-identical charges) as materializing
  /// the addresses and calling MemAccess; inlining the generator lets hot
  /// callers charge a gather without building an address vector first.
  template <typename AddrFn>
  void MemAccessIndexed(size_t count, uint32_t width, AddrFn addr_of) {
    if (width == 0 || count == 0) return;
    const uint64_t first = addr_of(size_t{0});
    uint64_t run_lo = LineOf(first);
    uint64_t run_hi = LineOf(first + width - 1);
    for (size_t i = 1; i < count; ++i) {
      const uint64_t a = addr_of(i);
      const uint64_t lo = LineOf(a);
      const uint64_t hi = LineOf(a + width - 1);
      if (lo <= run_hi + 1 && hi + 1 >= run_lo) {
        run_lo = std::min(run_lo, lo);
        run_hi = std::max(run_hi, hi);
      } else {
        TouchRun(run_lo, run_hi);
        run_lo = lo;
        run_hi = hi;
      }
    }
    TouchRun(run_lo, run_hi);
  }

  void SharedOp(int count = 1) { stats_.shared_ops += count; }
  void Atomic(int count = 1) { stats_.atomics += count; }

  // ---- Decode observability + intersection charge class.
  void DecodeWords(uint64_t count) { stats_.decode_words += count; }
  /// Compressed set-intersection operations (priced at
  /// cycles_per_intersect_op; see WarpStats::intersect_txns).
  void IntersectOps(uint64_t count) { stats_.intersect_txns += count; }

  /// Directly charges `count` memory transactions for lines the caller
  /// guarantees are distinct and not yet touched by this warp. Engines use
  /// this with their own exact per-warp line filters (e.g. the dense
  /// label-region epoch filter) to bypass the generic set for regions whose
  /// deduplication they can prove cheaper themselves. The lines MUST NOT be
  /// charged again through MemAccess* this warp, or they would double count.
  void ChargeTransactions(uint64_t count) { stats_.mem_txns += count; }

  /// Adds charges counted outside the warp walk (the out-of-core pager's
  /// fault and spill traffic for the warp's chunk).
  void Charge(const WarpStats& s) { stats_ += s; }

  const WarpStats& stats() const { return stats_; }
  WarpStats TakeStats() {
    WarpStats s = stats_;
    stats_ = WarpStats{};
    touched_lines_.Clear();
    ClearRecent();
    return s;
  }

  // ---- Warp-synchronous primitives (functional forms of __shfl_sync etc.).
  // They charge one shared op each, mirroring the "very low communication
  // cost" of intra-warp collaboration (paper §5.1).

  /// exclusiveScan of the paper: returns (scatter[i], total).
  template <typename T>
  T ExclusiveScan(std::span<const T> values, std::span<T> scatter) {
    SharedOp();
    T total = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      scatter[i] = total;
      total += values[i];
    }
    return total;
  }

  /// syncAny: true if any active lane's predicate holds.
  bool Any(std::span<const uint8_t> pred) {
    SharedOp();
    return std::any_of(pred.begin(), pred.end(), [](uint8_t p) { return p != 0; });
  }

  /// syncAll over the active lanes.
  bool All(std::span<const uint8_t> pred) {
    SharedOp();
    return std::all_of(pred.begin(), pred.end(), [](uint8_t p) { return p != 0; });
  }

  /// shfl: broadcast lane src_lane's value to the warp.
  template <typename T>
  T Shfl(std::span<const T> values, int src_lane) {
    SharedOp();
    return values[src_lane];
  }

 private:
  /// Cache line of a byte address. line_bytes is a power of two in every
  /// real configuration, so this is a shift; the division fallback keeps
  /// exotic line sizes working.
  uint64_t LineOf(uint64_t addr) const {
    return line_shift_ >= 0 ? addr >> line_shift_ : addr / line_bytes_;
  }

  /// Charges the cold lines of the inclusive line run [first_line,
  /// last_line] in one batched LineSet operation, behind a direct-mapped
  /// recently-charged-run cache: every lane re-reading the line it was
  /// already working on (decode streams, queue windows — the overwhelming
  /// majority of the warp's accesses under the L1 reuse model) resolves in
  /// two comparisons without reaching the set. Skipping is always exact: a
  /// cached run was fully inserted, so a covered query has zero cold lines.
  void TouchRun(uint64_t first_line, uint64_t last_line) {
    const size_t slot = static_cast<size_t>(first_line) & (kRecentSlots - 1);
    if (first_line >= recent_lo_[slot] && last_line <= recent_hi_[slot]) {
      return;
    }
    stats_.mem_txns +=
        touched_lines_.InsertRun(first_line, last_line - first_line + 1);
    recent_lo_[slot] = first_line;
    recent_hi_[slot] = last_line;
  }

  void ClearRecent() {
    recent_lo_.fill(1);
    recent_hi_.fill(0);
  }

  static constexpr size_t kRecentSlots = 256;

  int num_lanes_;
  uint64_t line_bytes_;
  int line_shift_;
  WarpStats stats_;
  LineSet touched_lines_;
  // Direct-mapped (by first line id) cache of recently charged line runs.
  std::array<uint64_t, kRecentSlots> recent_lo_;
  std::array<uint64_t, kRecentSlots> recent_hi_;
};

}  // namespace gcgt::simt

#endif  // GCGT_SIMT_WARP_H_
