#include "core/cgr_traversal.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_map>

#include "cgr/byte_codecs.h"
#include "cgr/cgr_decoder.h"
#include "core/bc_filters.h"
#include "core/cc_filter.h"
#include "core/memory_layout.h"
#include "core/warp_centric.h"
#include "ooc/partition_pager.h"
#include "util/thread_pool.h"
#include "util/zigzag.h"

namespace gcgt {
namespace {

using simt::WarpContext;
using simt::WarpStats;

using BitRange = std::pair<uint64_t, uint64_t>;  // inclusive byte range

BitRange ByteRangeOf(uint64_t bit_before, uint64_t bit_after) {
  uint64_t lo = kBitsBase + bit_before / 8;
  uint64_t hi = kBitsBase + (bit_after > bit_before ? (bit_after - 1) / 8
                                                    : bit_before / 8);
  return {lo, hi};
}

/// A neighbor awaiting its visited-check/append slot, plus the bookkeeping
/// that produces the Fig. 4 trace labels.
struct AppendItem {
  int exec_lane = 0;
  NodeId u = 0;
  NodeId v = 0;
  TraceOp origin = TraceOp::kAppend;
  int src_lane = 0;
  int idx1 = 0;   // interval index / residual index
  int idx2 = -1;  // neighbor index within the interval
};

std::string ItemLabel(const AppendItem& it) {
  char buf[48];
  if (it.origin == TraceOp::kDecodeInterval) {
    std::snprintf(buf, sizeof(buf), "t%d:i%d:%d", it.src_lane, it.idx1, it.idx2);
  } else {
    std::snprintf(buf, sizeof(buf), "t%d:res%d", it.src_lane, it.idx1);
  }
  return buf;
}

/// Per-lane traversal state.
struct Lane {
  bool valid = false;
  NodeId u = 0;
  // Cache lines of this lane's last charged decode read (see
  // WarpSim::PushRange); empty when lo > hi. Byte codecs keep two decode
  // cursors (StreamVByte's control and data areas are disjoint), so they get
  // a second cache.
  uint64_t chg_lo = 1;
  uint64_t chg_hi = 0;
  uint64_t chg2_lo = 1;
  uint64_t chg2_hi = 0;
  std::optional<CgrNodeDecoder> dec;
  ByteCodecStream bs;  // byte-codec block cursor (codec != kCgr only)
  uint64_t deg = 0;        // unsegmented degree header
  uint32_t itv_total = 0;  // intervals announced by the header
  uint32_t itv_read = 0;   // intervals decoded so far
  // Interval currently pending expansion.
  NodeId itv_ptr = 0;
  uint32_t itv_len = 0;
  int itv_idx = -1;
  uint32_t itv_consumed = 0;
  // Residuals.
  ResidualStream rs;
  bool rs_ready = false;
  int res_idx = 0;
  bool res_pending = false;
  NodeId res_val = 0;
  // Segmented layout.
  bool segs_read = false;
  uint32_t seg_count = 0;
  uint32_t seg_next = 0;
};

/// Simulates one warp over one frontier chunk. An instance is reusable
/// across chunks (one lives in each worker thread's scratch); all phase
/// scratch buffers are members so the steady-state hot path allocates
/// nothing.
///
/// Two run modes:
///  - RunSerial: the reference engine. Filter decisions, out-frontier
///    appends and their memory charges happen inline, and a StepTrace may
///    record Fig. 4 tables.
///  - RunEnumerate: the parallel-phase engine. The decode/scheduling walk is
///    identical (it never depends on the filter), but each append slot hands
///    its (u, v) pairs to the filter's chunk-scoped claim pass
///    (FrontierFilter::ClaimBatch), which applies atomic claims and records
///    the surviving candidates in the worker's claim arena; decisions are
///    settled by ResolveChunk / the serial MergeBatch afterwards (see
///    CgrTraversalEngine::ProcessFrontier).
class WarpSim {
 public:
  WarpSim(const CgrGraph& g, const GcgtOptions& o)
      : g_(g),
        o_(o),
        ctx_(o.lanes, o.cost.cache_line_bytes),
        line_shift_(std::has_single_bit(
                        static_cast<uint64_t>(o.cost.cache_line_bytes))
                        ? std::countr_zero(
                              static_cast<uint64_t>(o.cost.cache_line_bytes))
                        : -1) {
    const uint64_t line = static_cast<uint64_t>(o.cost.cache_line_bytes);
    label_filter_.Configure(line / 4, g.num_nodes());
    offset_filter_.Configure(line / 8, g.num_nodes() + 1);
    lanes_.resize(o.lanes);
  }

  WarpStats RunSerial(std::span<const NodeId> chunk, FrontierFilter& filter,
                      std::vector<NodeId>* out, StepTrace* trace) {
    filter_ = &filter;
    filter_kind_ = filter.kind();
    out_ = out;
    trace_ = trace;
    claim_filter_ = nullptr;
    claim_writer_ = nullptr;
    return Run(chunk);
  }

  WarpStats RunEnumerate(std::span<const NodeId> chunk, FrontierFilter& filter,
                         ClaimBatchWriter& writer) {
    filter_ = nullptr;
    out_ = nullptr;
    trace_ = nullptr;
    claim_filter_ = &filter;
    claim_writer_ = &writer;
    return Run(chunk);
  }

 private:
  WarpStats Run(std::span<const NodeId> chunk);

  bool segmented() const { return g_.options().segment_len_bytes != 0; }
  uint64_t ResidualsRemaining(const Lane& ln) const {
    if (ln.rs_ready) return ln.rs.remaining();
    if (segmented()) return 0;  // unknown before segment headers
    return ln.deg - ln.dec->interval_neighbor_total();
  }

  void HeaderPhase(std::span<const NodeId> chunk);
  void ByteCodecPhase(std::span<const NodeId> chunk);
  void RunIntuitive();
  void IntervalPhase();
  void SetupUnsegmentedResiduals();
  void ResidualPhaseTwoPhase();
  void ResidualPhaseStealing();
  void StealWindows(const std::vector<int>& work_lanes, bool handoff);
  void WarpCentricStream(int lane_idx);
  void SegmentedResidualPhase();
  void SegmentedSerialResiduals();

  // Charges one decode instruction slot touching `ranges` of the bit array.
  // Also counts the 8-byte words those ranges span (WarpStats::decode_words,
  // observability only — PushRange's lane caches mean this counts novel-line
  // fetches, which is exactly the stream the word-at-a-time decoders read).
  void ChargeDecode(size_t active, std::span<const BitRange> ranges) {
    ctx_.DecodeStep(static_cast<int>(active));
    uint64_t words = 0;
    for (const BitRange& r : ranges) words += r.second / 8 - r.first / 8 + 1;
    if (words > 0) ctx_.DecodeWords(words);
    ctx_.MemAccessRanges(ranges);
  }

  // Appends a decode read's byte range to ranges_, unless the reading
  // lane's previous charged read already covered exactly these cache lines.
  // Decode cursors advance monotonically a few bits at a time, so almost
  // every read re-touches the line of the previous one; those lines are
  // already in this warp's LineSet, so dropping the range here leaves
  // mem_txns (and all other WarpStats fields) bit-identical while skipping
  // the whole accounting path for the hot case. (lane_lo, lane_hi) is the
  // per-lane cache, stored with the lane/executor state.
  void PushRange(uint64_t bit_before, uint64_t bit_after, uint64_t& lane_lo,
                 uint64_t& lane_hi) {
    const BitRange r = ByteRangeOf(bit_before, bit_after);
    if (line_shift_ >= 0) {
      const uint64_t lo = r.first >> line_shift_;
      const uint64_t hi = r.second >> line_shift_;
      if (lo >= lane_lo && hi <= lane_hi) return;
      lane_lo = lo;
      lane_hi = hi;
    }
    ranges_.push_back(r);
  }
  // One visited-check/append slot over `items`. Does not clear the storage;
  // callers reuse and clear their own buffers.
  void AppendStep(std::span<AppendItem> items);
  template <typename Filter>
  void AppendDecide(Filter& filter, std::span<const AppendItem> items);

  const CgrGraph& g_;
  const GcgtOptions& o_;
  WarpContext ctx_;
  int line_shift_;  // log2(cache line bytes); -1 disables range skipping

  // Per-warp exact line filters for the dense label (4B) and bitStart-offset
  // (8B) regions; replaces LineSet dedup of kLabelBase / kOffsetsBase
  // accesses with one array lookup (see simt::DenseRegionFilter).
  simt::DenseRegionFilter label_filter_;
  simt::DenseRegionFilter offset_filter_;

  // Per-run bindings (exactly one of filter_/claim_writer_ is set).
  FrontierFilter* filter_ = nullptr;
  FrontierFilter::Kind filter_kind_ = FrontierFilter::Kind::kGeneric;
  std::vector<NodeId>* out_ = nullptr;
  StepTrace* trace_ = nullptr;
  FrontierFilter* claim_filter_ = nullptr;
  ClaimBatchWriter* claim_writer_ = nullptr;

  // Reusable scratch (capacity persists across chunks; no steady-state
  // allocation).
  std::vector<Lane> lanes_;
  std::vector<BitRange> ranges_;
  std::vector<AppendItem> items_;
  std::vector<uint8_t> pred_;
  std::vector<int> work_;
  std::vector<AppendItem> buffer_;
  std::vector<EdgePair> edge_pairs_;
  struct Task {
    int src_lane;
    uint32_t seg;
  };
  std::vector<Task> tasks_;
  struct ExecState {
    size_t next = 0;    // index into tasks_ of the next task (stride = lanes)
    Lane* owner = nullptr;  // lane owning the open task
    ResidualStream stream;
    bool open = false;
    // PushRange cache for this executor's decode cursor.
    uint64_t chg_lo = 1;
    uint64_t chg_hi = 0;
  };
  std::vector<ExecState> exec_;
};

void WarpSim::AppendStep(std::span<AppendItem> items) {
  if (items.empty()) return;
  assert(items.size() <= static_cast<size_t>(o_.lanes));
  ctx_.AppendStepOp(static_cast<int>(items.size()));
  if (trace_ != nullptr) {
    trace_->BeginStep(TraceOp::kAppend);
    for (const auto& it : items) trace_->Lane(it.exec_lane, ItemLabel(it));
  }
  // Visited/label gather for the filtering check. Label words are 4-byte
  // aligned in a dense region (one line holds line_bytes/4 consecutive
  // labels, no straddles), so the per-warp epoch filter below deduplicates
  // label lines exactly — bit-identical to inserting each into the LineSet,
  // at an array lookup per item. Falls back to the generic charge when the
  // line size is not 4-aligned-power-of-two.
  if (label_filter_.enabled()) {
    uint64_t novel = 0;
    for (const auto& it : items) novel += label_filter_.Touch(it.v);
    if (novel > 0) ctx_.ChargeTransactions(novel);
  } else {
    ctx_.MemAccessIndexed(items.size(), 4, [items](size_t i) {
      return kLabelBase + 4ull * items[i].v;
    });
  }
  ctx_.SharedOp();  // exclusiveScan for the contraction offsets
  ctx_.Atomic(1);   // single queue-tail atomic per warp (Alg. 1 line 30)
  if (claim_writer_ != nullptr) {
    // Enumerate mode: run the filter's parallel claim pass for this slot;
    // the dependent charges (extra atomics, queue append) are reconstructed
    // from the claim buffers during the serial merge.
    edge_pairs_.clear();
    for (const auto& it : items) edge_pairs_.push_back({it.u, it.v});
    claim_filter_->ClaimBatch(edge_pairs_, *claim_writer_);
    claim_writer_->EndBatch();
    return;
  }
  // Decide loop, statically dispatched for the well-known filters so the
  // per-edge Filter/AppendTarget/TakeAtomics sequence inlines.
  switch (filter_kind_) {
    case FrontierFilter::Kind::kBfs:
      assert(dynamic_cast<BfsFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<BfsFilter&>(*filter_), items);
      break;
    case FrontierFilter::Kind::kCc:
      assert(dynamic_cast<CcFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<CcFilter&>(*filter_), items);
      break;
    case FrontierFilter::Kind::kBcForward:
      assert(dynamic_cast<BcForwardFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<BcForwardFilter&>(*filter_), items);
      break;
    case FrontierFilter::Kind::kBcBackward:
      assert(dynamic_cast<BcBackwardFilter*>(filter_) != nullptr);
      AppendDecide(static_cast<BcBackwardFilter&>(*filter_), items);
      break;
    default:
      AppendDecide(*filter_, items);
      break;
  }
}

template <typename Filter>
void WarpSim::AppendDecide(Filter& filter, std::span<const AppendItem> items) {
  size_t tail = out_->size();
  for (const auto& it : items) {
    if (filter.Filter(it.u, it.v)) {
      out_->push_back(filter.AppendTarget(it.u, it.v));
    }
  }
  if (int extra = filter.TakeAtomics(); extra > 0) ctx_.Atomic(extra);
  if (out_->size() > tail) {
    // The label-update lines are a subset of this slot's visited-check
    // gather (same kLabelBase + 4v words), so re-charging them can never
    // produce a transaction; only the queue append can touch cold lines.
    ctx_.MemAccessRange(kQueueBase + 4ull * tail, 4ull * (out_->size() - tail));
  }
}

void WarpSim::HeaderPhase(std::span<const NodeId> chunk) {
  // Reset lanes in place (assigning fresh Lane values would reconstruct the
  // decoder/stream members of all lanes on every chunk). `rs` and `dec` are
  // left stale: they are only read behind rs_ready / valid.
  for (int i = 0; i < o_.lanes; ++i) {
    Lane& ln = lanes_[i];
    ln.valid = static_cast<size_t>(i) < chunk.size();
    ln.chg_lo = 1;
    ln.chg_hi = 0;
    ln.deg = 0;
    ln.itv_total = 0;
    ln.itv_read = 0;
    ln.itv_ptr = 0;
    ln.itv_len = 0;
    ln.itv_idx = -1;
    ln.itv_consumed = 0;
    ln.rs_ready = false;
    ln.res_idx = 0;
    ln.res_pending = false;
    ln.res_val = 0;
    ln.segs_read = false;
    ln.seg_count = 0;
    ln.seg_next = 0;
    if (ln.valid) {
      ln.u = chunk[i];
      ln.dec.emplace(g_, ln.u);
    }
  }
  // Coalesced frontier load + bitStart offset gather.
  ctx_.Step(static_cast<int>(chunk.size()));
  ctx_.MemAccessRange(kQueueBase, 4ull * chunk.size());
  if (offset_filter_.enabled()) {
    uint64_t novel = 0;
    for (NodeId u : chunk) novel += offset_filter_.Touch(u);
    if (novel > 0) ctx_.ChargeTransactions(novel);
  } else {
    ctx_.MemAccessIndexed(chunk.size(), 8, [chunk](size_t i) {
      return kOffsetsBase + 8ull * chunk[i];
    });
  }

  ranges_.clear();
  if (!segmented()) {
    // Degree header.
    size_t active = 0;
    for (Lane& ln : lanes_) {
      if (!ln.valid) continue;
      uint64_t before = ln.dec->bit_pos();
      ln.deg = ln.dec->ReadDegree();
      PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
      ++active;
    }
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
    ChargeDecode(active, ranges_);
    // Interval-count header (only encoded when deg > 0).
    ranges_.clear();
    active = 0;
    for (Lane& ln : lanes_) {
      if (!ln.valid || ln.deg == 0) continue;
      uint64_t before = ln.dec->bit_pos();
      ln.itv_total = ln.dec->ReadIntervalCount();
      PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
      ++active;
    }
    if (active > 0) {
      if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
      ChargeDecode(active, ranges_);
    }
  } else {
    size_t active = 0;
    for (Lane& ln : lanes_) {
      if (!ln.valid) continue;
      uint64_t before = ln.dec->bit_pos();
      ln.itv_total = ln.dec->ReadIntervalCount();
      PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
      ++active;
    }
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
    ChargeDecode(active, ranges_);
  }
}

// ---------------------------------------------------------------------------
// Byte-codec walk (StreamVByte / VarintGB): no intervals, no VLC — every
// lane streams 4-delta blocks out of its node's byte-aligned encoding. One
// table-driven block decode per lane per round, appends batched through the
// shared buffer exactly like the stealing stage, so warp-wide append slots
// stay full even when lane degrees diverge.
// ---------------------------------------------------------------------------
void WarpSim::ByteCodecPhase(std::span<const NodeId> chunk) {
  for (int i = 0; i < o_.lanes; ++i) {
    Lane& ln = lanes_[i];
    ln.valid = static_cast<size_t>(i) < chunk.size();
    ln.chg_lo = 1;
    ln.chg_hi = 0;
    ln.chg2_lo = 1;
    ln.chg2_hi = 0;
    ln.res_idx = 0;
    if (ln.valid) {
      ln.u = chunk[i];
      ln.bs = ByteCodecStream(g_, ln.u);
    }
  }
  // Coalesced frontier load + bitStart offset gather (same as HeaderPhase).
  ctx_.Step(static_cast<int>(chunk.size()));
  ctx_.MemAccessRange(kQueueBase, 4ull * chunk.size());
  if (offset_filter_.enabled()) {
    uint64_t novel = 0;
    for (NodeId u : chunk) novel += offset_filter_.Touch(u);
    if (novel > 0) ctx_.ChargeTransactions(novel);
  } else {
    ctx_.MemAccessIndexed(chunk.size(), 8, [chunk](size_t i) {
      return kOffsetsBase + 8ull * chunk[i];
    });
  }

  // LEB128 degree headers.
  ranges_.clear();
  size_t active = 0;
  for (Lane& ln : lanes_) {
    if (!ln.valid) continue;
    PushRange(g_.bit_start(ln.u), ln.bs.header_end_byte() * 8, ln.chg_lo,
              ln.chg_hi);
    ++active;
  }
  if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
  ChargeDecode(active, ranges_);
  ctx_.SharedOp();  // exclusiveScan over degrees for buffer offsets

  buffer_.clear();
  size_t head = 0;  // buffered items before head were already appended
  auto flush = [&](bool final_flush) {
    while (buffer_.size() - head >= static_cast<size_t>(o_.lanes) ||
           (final_flush && buffer_.size() > head)) {
      size_t take = std::min<size_t>(buffer_.size() - head, o_.lanes);
      std::span<AppendItem> round(buffer_.data() + head, take);
      for (size_t i = 0; i < take; ++i) {
        round[i].exec_lane = static_cast<int>(i);
      }
      head += take;
      AppendStep(round);
    }
  };

  // Lockstep block rounds: each lane with blocks left decodes one group of
  // up to 4 neighbors per decode slot.
  for (;;) {
    ranges_.clear();
    active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (!ln.valid || !ln.bs.HasNext()) continue;
      const ByteBlock blk = ln.bs.NextBlock();
      if (g_.options().codec == CodecId::kVarintGb) {
        // Control byte and data are contiguous: one span.
        PushRange(blk.ctrl_byte * 8, (blk.data_last + 1) * 8, ln.chg_lo,
                  ln.chg_hi);
      } else {
        // StreamVByte: control area and data area are disjoint cursors.
        PushRange(blk.ctrl_byte * 8, (blk.ctrl_byte + 1) * 8, ln.chg_lo,
                  ln.chg_hi);
        PushRange(blk.data_first * 8, (blk.data_last + 1) * 8, ln.chg2_lo,
                  ln.chg2_hi);
      }
      ++active;
      if (trace_ != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "t%d:res%d", l, ln.res_idx);
        trace_->Lane(l, buf);
      }
      for (uint32_t i = 0; i < blk.count; ++i) {
        AppendItem it;
        it.src_lane = l;
        it.u = ln.u;
        it.v = blk.vals[i];
        it.origin = TraceOp::kDecodeResidual;
        it.idx1 = ln.res_idx++;
        buffer_.push_back(it);
      }
    }
    if (active == 0) break;
    ChargeDecode(active, ranges_);
    ctx_.SharedOp();  // buffer write
    flush(false);
  }
  flush(true);
}

// ---------------------------------------------------------------------------
// Intuitive strategy (Alg. 1): every lane decodes its own list serially; the
// warp serializes the divergent branch targets with the fixed priority
// DecodeInterval > DecodeResidual > Append, reproducing Fig. 4(b).
// ---------------------------------------------------------------------------
void WarpSim::RunIntuitive() {
  enum class Op { kNone, kDecItv, kDecRes, kOpenSeg, kAppend };
  auto next_op = [&](Lane& ln) -> Op {
    if (!ln.valid) return Op::kNone;
    if (ln.itv_len > 0 || ln.res_pending) return Op::kAppend;
    if (ln.itv_read < ln.itv_total) return Op::kDecItv;
    if (ln.rs_ready && ln.rs.HasNext()) return Op::kDecRes;
    if (!segmented()) {
      if (!ln.rs_ready && ResidualsRemaining(ln) > 0) return Op::kDecRes;
      return Op::kNone;
    }
    if (!ln.segs_read) return Op::kOpenSeg;
    if (ln.seg_next < ln.seg_count) return Op::kOpenSeg;
    return Op::kNone;
  };

  std::vector<Op> ops(o_.lanes);
  for (;;) {
    bool any = false;
    bool has_itv = false, has_res = false, has_seg = false;
    for (int l = 0; l < o_.lanes; ++l) {
      ops[l] = next_op(lanes_[l]);
      if (ops[l] == Op::kNone) continue;
      any = true;
      has_itv |= ops[l] == Op::kDecItv;
      has_seg |= ops[l] == Op::kOpenSeg;
      has_res |= ops[l] == Op::kDecRes;
    }
    if (!any) break;

    if (has_itv) {
      ranges_.clear();
      size_t active = 0;
      if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeInterval);
      for (int l = 0; l < o_.lanes; ++l) {
        if (ops[l] != Op::kDecItv) continue;
        Lane& ln = lanes_[l];
        uint64_t before = ln.dec->bit_pos();
        CgrInterval itv = ln.dec->ReadNextInterval();
        PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
        ++ln.itv_read;
        ++ln.itv_idx;
        ln.itv_ptr = itv.start;
        ln.itv_len = itv.len;
        ln.itv_consumed = 0;
        ++active;
        if (trace_ != nullptr) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "t%d:i%d", l, ln.itv_idx);
          trace_->Lane(l, buf);
        }
      }
      ChargeDecode(active, ranges_);
      continue;
    }
    if (has_seg) {
      // Segment headers (segmented layout under the intuitive strategy).
      ranges_.clear();
      size_t active = 0;
      if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
      for (int l = 0; l < o_.lanes; ++l) {
        if (ops[l] != Op::kOpenSeg) continue;
        Lane& ln = lanes_[l];
        uint64_t before = ln.dec->bit_pos();
        if (!ln.segs_read) {
          ln.seg_count = ln.dec->ReadSegmentCount();
          ln.segs_read = true;
          PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
        } else {
          ln.rs = ln.dec->SegmentResiduals(ln.seg_next);
          uint64_t base = ln.dec->SegmentBitPos(ln.seg_next);
          PushRange(base, ln.rs.bit_pos(), ln.chg_lo, ln.chg_hi);
          ++ln.seg_next;
          ln.rs_ready = true;
        }
        ++active;
      }
      ChargeDecode(active, ranges_);
      continue;
    }
    if (has_res) {
      ranges_.clear();
      size_t active = 0;
      if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
      for (int l = 0; l < o_.lanes; ++l) {
        if (ops[l] != Op::kDecRes) continue;
        Lane& ln = lanes_[l];
        if (!ln.rs_ready) {
          ln.rs = ln.dec->UnsegmentedResiduals(ResidualsRemaining(ln));
          ln.rs_ready = true;
        }
        uint64_t before = ln.rs.bit_pos();
        ln.res_val = ln.rs.Next();
        ln.res_pending = true;
        PushRange(before, ln.rs.bit_pos(), ln.chg_lo, ln.chg_hi);
        ++active;
        if (trace_ != nullptr) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "t%d:res%d", l, ln.res_idx);
          trace_->Lane(l, buf);
        }
      }
      ChargeDecode(active, ranges_);
      continue;
    }
    // Append step: every lane with a pending neighbor handles it.
    items_.clear();
    for (int l = 0; l < o_.lanes; ++l) {
      if (ops[l] != Op::kAppend) continue;
      Lane& ln = lanes_[l];
      AppendItem it;
      it.exec_lane = l;
      it.src_lane = l;
      it.u = ln.u;
      if (ln.itv_len > 0) {
        it.origin = TraceOp::kDecodeInterval;
        it.v = ln.itv_ptr;
        it.idx1 = ln.itv_idx;
        it.idx2 = static_cast<int>(ln.itv_consumed);
        ++ln.itv_ptr;
        --ln.itv_len;
        ++ln.itv_consumed;
      } else {
        it.origin = TraceOp::kDecodeResidual;
        it.v = ln.res_val;
        it.idx1 = ln.res_idx++;
        ln.res_pending = false;
      }
      items_.push_back(it);
    }
    AppendStep(items_);
  }
}

// ---------------------------------------------------------------------------
// Two-Phase interval phase (Alg. 2): decode rounds followed by collaborative
// expansion; long intervals are expanded by the whole warp (stage 1), the
// leftovers are packed through the shared-memory buffer (stage 2).
// ---------------------------------------------------------------------------
void WarpSim::IntervalPhase() {
  pred_.assign(o_.lanes, 0);
  for (;;) {
    // Decode round.
    ranges_.clear();
    size_t active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeInterval);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (!ln.valid || ln.itv_read >= ln.itv_total) continue;
      uint64_t before = ln.dec->bit_pos();
      CgrInterval itv = ln.dec->ReadNextInterval();
      PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
      ++ln.itv_read;
      ++ln.itv_idx;
      ln.itv_ptr = itv.start;
      ln.itv_len = itv.len;
      ln.itv_consumed = 0;
      ++active;
      if (trace_ != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "t%d:i%d", l, ln.itv_idx);
        trace_->Lane(l, buf);
      }
    }
    if (active == 0) break;
    ChargeDecode(active, ranges_);

    // Stage 1: warp-wide expansion of long intervals.
    for (;;) {
      for (int l = 0; l < o_.lanes; ++l) {
        pred_[l] = lanes_[l].itv_len >= static_cast<uint32_t>(o_.lanes) ? 1 : 0;
      }
      if (!ctx_.Any(pred_)) break;  // syncAny
      int winner = -1;
      for (int l = 0; l < o_.lanes; ++l) {
        if (pred_[l]) {
          winner = l;
          break;
        }
      }
      ctx_.SharedOp();  // shfl broadcast of the winner's interval
      Lane& w = lanes_[winner];
      items_.clear();
      for (int l = 0; l < o_.lanes; ++l) {
        AppendItem it;
        it.exec_lane = l;
        it.src_lane = winner;
        it.u = w.u;
        it.v = w.itv_ptr + static_cast<NodeId>(l);
        it.origin = TraceOp::kDecodeInterval;
        it.idx1 = w.itv_idx;
        it.idx2 = static_cast<int>(w.itv_consumed) + l;
        items_.push_back(it);
      }
      w.itv_ptr += o_.lanes;
      w.itv_len -= o_.lanes;
      w.itv_consumed += o_.lanes;
      AppendStep(items_);
    }

    // Stage 2: collaborative expansion of the remaining short intervals.
    uint64_t total = 0;
    for (const Lane& ln : lanes_) total += ln.itv_len;
    if (total > 0) ctx_.SharedOp();  // exclusiveScan of remaining lengths
    while (total > 0) {
      items_.clear();
      int filled = 0;
      for (int l = 0; l < o_.lanes && filled < o_.lanes; ++l) {
        Lane& ln = lanes_[l];
        while (ln.itv_len > 0 && filled < o_.lanes) {
          AppendItem it;
          it.exec_lane = filled;
          it.src_lane = l;
          it.u = ln.u;
          it.v = ln.itv_ptr;
          it.origin = TraceOp::kDecodeInterval;
          it.idx1 = ln.itv_idx;
          it.idx2 = static_cast<int>(ln.itv_consumed);
          ++ln.itv_ptr;
          --ln.itv_len;
          ++ln.itv_consumed;
          items_.push_back(it);
          ++filled;
        }
      }
      ctx_.SharedOp();  // shared buffer fill
      AppendStep(items_);
      total -= filled;
    }
  }
}

void WarpSim::SetupUnsegmentedResiduals() {
  for (Lane& ln : lanes_) {
    if (!ln.valid || ln.deg == 0) continue;
    ln.rs = ln.dec->UnsegmentedResiduals(ln.deg - ln.dec->interval_neighbor_total());
    ln.rs_ready = true;
  }
}

// Residual phase of Alg. 2: lockstep decode+append rounds, no stealing.
void WarpSim::ResidualPhaseTwoPhase() {
  for (;;) {
    ranges_.clear();
    items_.clear();
    size_t active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (!ln.valid || !ln.rs_ready || !ln.rs.HasNext()) continue;
      uint64_t before = ln.rs.bit_pos();
      NodeId v = ln.rs.Next();
      PushRange(before, ln.rs.bit_pos(), ln.chg_lo, ln.chg_hi);
      ++active;
      if (trace_ != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "t%d:res%d", l, ln.res_idx);
        trace_->Lane(l, buf);
      }
      AppendItem it;
      it.exec_lane = l;
      it.src_lane = l;
      it.u = ln.u;
      it.v = v;
      it.origin = TraceOp::kDecodeResidual;
      it.idx1 = ln.res_idx++;
      items_.push_back(it);
    }
    if (active == 0) break;
    ChargeDecode(active, ranges_);
    AppendStep(items_);
  }
}

// Residual phase of Alg. 3 (+ warp-centric of Alg. 4 at level >= 3).
void WarpSim::ResidualPhaseStealing() {
  pred_.assign(o_.lanes, 0);

  // Stage 1: all lanes busy -> plain lockstep rounds (syncAll loop).
  for (;;) {
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      pred_[l] = (ln.valid && ln.rs_ready && ln.rs.HasNext()) ? 1 : 0;
    }
    if (!ctx_.All(pred_)) break;  // syncAll
    ranges_.clear();
    items_.clear();
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      uint64_t before = ln.rs.bit_pos();
      NodeId v = ln.rs.Next();
      PushRange(before, ln.rs.bit_pos(), ln.chg_lo, ln.chg_hi);
      if (trace_ != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "t%d:res%d", l, ln.res_idx);
        trace_->Lane(l, buf);
      }
      AppendItem it;
      it.exec_lane = l;
      it.src_lane = l;
      it.u = ln.u;
      it.v = v;
      it.origin = TraceOp::kDecodeResidual;
      it.idx1 = ln.res_idx++;
      items_.push_back(it);
    }
    ChargeDecode(o_.lanes, ranges_);
    AppendStep(items_);
  }

  // Stage 2: stealing rounds while several lanes still hold residuals. Once
  // the warp is nearly drained (paper §5.1: warp-centric decoding "falls
  // back on idle threads"), a long leftover stream is decoded by the whole
  // warp speculatively instead of by its single owner lane.
  for (;;) {
    work_.clear();
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (ln.valid && ln.rs_ready && ln.rs.HasNext()) work_.push_back(l);
    }
    if (work_.empty()) return;
    if (o_.level >= GcgtLevel::kWarpCentric && work_.size() <= 2) {
      bool any_heavy = false;
      for (int l : work_) {
        if (lanes_[l].rs.remaining() >=
            static_cast<uint64_t>(o_.warp_centric_min_residuals)) {
          any_heavy = true;
        }
      }
      if (any_heavy) {
        for (int l : work_) WarpCentricStream(l);
        return;
      }
    }
    StealWindows(work_, /*handoff=*/o_.level >= GcgtLevel::kWarpCentric);
    if (o_.level < GcgtLevel::kWarpCentric) return;  // StealWindows drained all
  }
}

// Stealing stage 2: the lanes still holding residuals decode concurrently
// (one decode slot per round, each active lane contributes one value to the
// shared buffer); idle lanes steal the buffered values so appends run as
// full warp-wide slots (one per `lanes` values). This keeps Alg. 3's 32:1
// append batching while letting the per-lane serial streams advance in
// parallel, and reproduces the step table of Fig. 4(d) exactly.
void WarpSim::StealWindows(const std::vector<int>& work_lanes, bool handoff) {
  if (work_lanes.empty()) return;
  buffer_.clear();
  size_t head = 0;  // buffered items before head were already appended

  // exclusiveScan over the remaining counts to compute buffer offsets.
  ctx_.SharedOp();

  auto flush = [&](bool final_flush) {
    while (buffer_.size() - head >= static_cast<size_t>(o_.lanes) ||
           (final_flush && buffer_.size() > head)) {
      size_t take = std::min<size_t>(buffer_.size() - head, o_.lanes);
      std::span<AppendItem> round(buffer_.data() + head, take);
      for (size_t i = 0; i < take; ++i) {
        round[i].exec_lane = static_cast<int>(i);
      }
      head += take;
      AppendStep(round);
    }
  };

  for (;;) {
    if (handoff) {
      // Hand long leftover streams to warp-centric decoding once at most two
      // lanes still hold work (the rest of the warp is idle).
      int busy = 0;
      bool any_heavy = false;
      for (int l : work_lanes) {
        if (lanes_[l].rs.HasNext()) {
          ++busy;
          if (lanes_[l].rs.remaining() >=
              static_cast<uint64_t>(o_.warp_centric_min_residuals)) {
            any_heavy = true;
          }
        }
      }
      if (busy > 0 && busy <= 2 && any_heavy) break;
    }
    ranges_.clear();
    size_t active = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l : work_lanes) {
      Lane& ln = lanes_[l];
      if (!ln.rs.HasNext()) continue;
      uint64_t before = ln.rs.bit_pos();
      NodeId v = ln.rs.Next();
      PushRange(before, ln.rs.bit_pos(), ln.chg_lo, ln.chg_hi);
      ++active;
      if (trace_ != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "t%d:res%d", l, ln.res_idx);
        trace_->Lane(l, buf);
      }
      AppendItem it;
      it.src_lane = l;
      it.u = ln.u;
      it.v = v;
      it.origin = TraceOp::kDecodeResidual;
      it.idx1 = ln.res_idx++;
      buffer_.push_back(it);
    }
    if (active == 0) break;
    ChargeDecode(active, ranges_);
    ctx_.SharedOp();  // buffer write
    flush(false);
  }
  flush(true);
}

void WarpSim::WarpCentricStream(int lane_idx) {
  Lane& ln = lanes_[lane_idx];
  while (ln.rs.HasNext()) {
    uint64_t base = ln.rs.bit_pos();
    ParallelDecodeResult r =
        WarpCentricDecodeWindow(g_.bits().data(), g_.total_bits(), base,
                                o_.lanes, g_.options().scheme, ln.rs.remaining());
    if (r.values.empty()) break;  // corrupted stream; bail out defensively
    // Speculative decode: every lane decodes from its candidate bit; the
    // whole warp reads one small contiguous window (coalesced).
    if (trace_ != nullptr) {
      trace_->BeginStep(TraceOp::kDecodeResidual);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "t%d:wc", lane_idx);
      trace_->Lane(lane_idx, buf);
    }
    ctx_.DecodeStep(o_.lanes);
    ctx_.MemAccessRange(kBitsBase + base / 8, o_.lanes / 8 + 10);
    {
      const uint64_t first = kBitsBase + base / 8;
      const uint64_t last = first + static_cast<uint64_t>(o_.lanes / 8 + 10) - 1;
      ctx_.DecodeWords(last / 8 - first / 8 + 1);
    }
    // Pointer-jumping identification rounds (Lemma 5.2).
    for (int i = 0; i < r.rounds; ++i) {
      ctx_.Step(o_.lanes);
      ctx_.SharedOp();
    }
    // Materialize neighbor ids from the raw gap codewords.
    NodeId prev = ln.rs.prev();
    bool first = ln.rs.at_first();
    items_.clear();
    for (size_t i = 0; i < r.values.size(); ++i) {
      NodeId node;
      if (first) {
        node = static_cast<NodeId>(static_cast<int64_t>(ln.rs.source()) +
                                   ZigzagDecode(r.values[i] - 1));
        first = false;
      } else {
        node = static_cast<NodeId>(prev + r.values[i]);
      }
      prev = node;
      AppendItem it;
      it.exec_lane = static_cast<int>(i);
      it.src_lane = lane_idx;
      it.u = ln.u;
      it.v = node;
      it.origin = TraceOp::kDecodeResidual;
      it.idx1 = ln.res_idx++;
      items_.push_back(it);
    }
    ln.rs.ExternalAdvance(r.next_bit_pos, prev, r.values.size());
    AppendStep(items_);
  }
}

// ---------------------------------------------------------------------------
// Residual segmentation scheduling (paper §5.2): every lane reads its node's
// segment count; all (node, segment) tasks are distributed round-robin over
// the lanes, which decode them independently thanks to the fixed segment
// stride and per-segment relative encoding.
// ---------------------------------------------------------------------------
void WarpSim::SegmentedResidualPhase() {
  ranges_.clear();
  // Segment-count headers.
  size_t active = 0;
  for (Lane& ln : lanes_) {
    if (!ln.valid) continue;
    uint64_t before = ln.dec->bit_pos();
    ln.seg_count = ln.dec->ReadSegmentCount();
    ln.segs_read = true;
    PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
    ++active;
  }
  if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
  ChargeDecode(active, ranges_);

  tasks_.clear();
  for (int l = 0; l < o_.lanes; ++l) {
    const Lane& ln = lanes_[l];
    if (!ln.valid) continue;
    for (uint32_t s = 0; s < ln.seg_count; ++s) tasks_.push_back({l, s});
  }
  if (tasks_.empty()) return;
  ctx_.SharedOp();  // task distribution via scan

  // Round-robin assignment: executing lane e walks tasks e, e+lanes, ... so
  // no per-lane queue materialization is needed.
  exec_.assign(o_.lanes, ExecState{});
  for (int e = 0; e < o_.lanes; ++e) exec_[e].next = static_cast<size_t>(e);

  buffer_.clear();
  size_t head = 0;  // buffered items before head were already appended
  auto flush = [&](bool final_flush) {
    while (buffer_.size() - head >= static_cast<size_t>(o_.lanes) ||
           (final_flush && buffer_.size() > head)) {
      size_t take = std::min<size_t>(buffer_.size() - head, o_.lanes);
      std::span<AppendItem> round(buffer_.data() + head, take);
      for (size_t i = 0; i < take; ++i) {
        round[i].exec_lane = static_cast<int>(i);
      }
      head += take;
      ctx_.SharedOp();
      AppendStep(round);
    }
  };

  // Live executing lanes, ascending. Lanes whose task stride is exhausted
  // drop out (stable compaction keeps lane order, so rounds, charges and
  // buffer order stay identical to scanning all lanes every round).
  work_.clear();
  for (int e = 0; e < o_.lanes; ++e) work_.push_back(e);
  while (!work_.empty()) {
    ranges_.clear();
    size_t decoding = 0;
    size_t kept = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (size_t idx = 0; idx < work_.size(); ++idx) {
      const int e = work_[idx];
      ExecState& st = exec_[e];
      if (st.open && !st.stream.HasNext()) st.open = false;
      if (!st.open) {
        if (st.next >= tasks_.size()) continue;  // drained: drop the lane
        const Task t = tasks_[st.next];
        st.next += static_cast<size_t>(o_.lanes);
        Lane& owner = lanes_[t.src_lane];
        st.owner = &owner;
        uint64_t base = owner.dec->SegmentBitPos(t.seg);
        st.stream = owner.dec->SegmentResiduals(t.seg);
        st.open = st.stream.HasNext();
        PushRange(base, st.stream.bit_pos(), st.chg_lo, st.chg_hi);
        ++decoding;  // the header read consumes this lane's slot this round
        work_[kept++] = e;
        continue;
      }
      uint64_t before = st.stream.bit_pos();
      NodeId v = st.stream.Next();
      PushRange(before, st.stream.bit_pos(), st.chg_lo, st.chg_hi);
      ++decoding;
      work_[kept++] = e;
      AppendItem it;
      it.src_lane = e;
      it.u = st.owner->u;
      it.v = v;
      it.origin = TraceOp::kDecodeResidual;
      it.idx1 = st.owner->res_idx++;
      buffer_.push_back(it);
    }
    work_.resize(kept);
    if (decoding == 0) break;
    ChargeDecode(decoding, ranges_);
    flush(false);
  }
  flush(true);
}

// Segmented layout under levels < kFull: each lane walks its own segments
// serially (no cross-lane distribution). Only exercised by non-default
// configurations; kept for completeness.
void WarpSim::SegmentedSerialResiduals() {
  ranges_.clear();
  // Segment-count headers.
  size_t active = 0;
  for (Lane& ln : lanes_) {
    if (!ln.valid) continue;
    uint64_t before = ln.dec->bit_pos();
    ln.seg_count = ln.dec->ReadSegmentCount();
    ln.segs_read = true;
    PushRange(before, ln.dec->bit_pos(), ln.chg_lo, ln.chg_hi);
    ++active;
  }
  if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
  ChargeDecode(active, ranges_);

  for (;;) {
    // Open next segment for lanes whose stream is exhausted.
    ranges_.clear();
    size_t opening = 0;
    for (Lane& ln : lanes_) {
      if (!ln.valid) continue;
      if (ln.rs_ready && ln.rs.HasNext()) continue;
      if (ln.seg_next >= ln.seg_count) {
        ln.rs_ready = false;
        continue;
      }
      uint64_t base = ln.dec->SegmentBitPos(ln.seg_next);
      ln.rs = ln.dec->SegmentResiduals(ln.seg_next);
      ++ln.seg_next;
      ln.rs_ready = true;
      PushRange(base, ln.rs.bit_pos(), ln.chg_lo, ln.chg_hi);
      ++opening;
    }
    if (opening > 0) {
      if (trace_ != nullptr) trace_->BeginStep(TraceOp::kHeader);
      ChargeDecode(opening, ranges_);
    }
    // One decode + append round.
    ranges_.clear();
    items_.clear();
    size_t decoding = 0;
    if (trace_ != nullptr) trace_->BeginStep(TraceOp::kDecodeResidual);
    for (int l = 0; l < o_.lanes; ++l) {
      Lane& ln = lanes_[l];
      if (!ln.valid || !ln.rs_ready || !ln.rs.HasNext()) continue;
      uint64_t before = ln.rs.bit_pos();
      NodeId v = ln.rs.Next();
      PushRange(before, ln.rs.bit_pos(), ln.chg_lo, ln.chg_hi);
      ++decoding;
      AppendItem it;
      it.exec_lane = l;
      it.src_lane = l;
      it.u = ln.u;
      it.v = v;
      it.origin = TraceOp::kDecodeResidual;
      it.idx1 = ln.res_idx++;
      items_.push_back(it);
    }
    if (decoding == 0 && opening == 0) break;
    if (decoding > 0) {
      ChargeDecode(decoding, ranges_);
      AppendStep(items_);
    }
  }
}

WarpStats WarpSim::Run(std::span<const NodeId> chunk) {
  label_filter_.NextWarp();
  offset_filter_.NextWarp();
  if (g_.options().codec != CodecId::kCgr) {
    // Byte codecs have no interval/residual split; the scheduling levels
    // collapse into one table-driven block walk.
    ByteCodecPhase(chunk);
    return ctx_.TakeStats();
  }
  HeaderPhase(chunk);
  if (o_.level == GcgtLevel::kIntuitive) {
    RunIntuitive();
  } else {
    IntervalPhase();
    if (segmented()) {
      if (o_.level >= GcgtLevel::kFull) {
        SegmentedResidualPhase();
      } else {
        SegmentedSerialResiduals();
      }
    } else {
      SetupUnsegmentedResiduals();
      if (o_.level == GcgtLevel::kTwoPhase) {
        ResidualPhaseTwoPhase();
      } else {
        ResidualPhaseStealing();
      }
    }
  }
  return ctx_.TakeStats();
}

}  // namespace

namespace internal {

/// Worker-thread state: one reusable warp simulator plus the claim arena
/// its chunks' ClaimBatch calls fill. Arenas are cleared (capacity kept)
/// every level.
struct WorkerState {
  WorkerState(const CgrGraph& g, const GcgtOptions& o) : sim(g, o) {}
  WarpSim sim;
  ClaimArena arena;
};

/// Result of enumerating + claiming one warp chunk, before the resolve and
/// merge phases.
struct ChunkRecord {
  simt::WarpStats stats;    // decision-independent charges from the warp walk
  uint32_t worker = 0;      // which WorkerState owns the arena slices below
  uint32_t chunk_size = 0;  // frontier nodes in this warp
  size_t cand_begin = 0;
  size_t batch_begin = 0;
  size_t batch_end = 0;
};

struct EngineScratch {
  EngineScratch(const CgrGraph& g, const GcgtOptions& o)
      : pool(&SharedThreadPool(o.num_threads <= 0
                                   ? 0
                                   : static_cast<size_t>(o.num_threads))),
        serial_sim(g, o) {
    workers.reserve(pool->num_threads());
    for (size_t t = 0; t < pool->num_threads(); ++t) {
      workers.push_back(std::make_unique<WorkerState>(g, o));
    }
    if (g.partitioned() && o.ooc_resident_bytes > 0) {
      pager.Configure(g.partitions(), o.ooc_resident_bytes,
                      o.cost.cache_line_bytes);
    }
  }

  ThreadPool* pool;  // process-shared, never null
  std::vector<std::unique_ptr<WorkerState>> workers;
  std::vector<ChunkRecord> records;
  WarpSim serial_sim;
  // Out-of-core partition pager (disabled unless the graph is partitioned
  // and a resident budget is set). Driven serially in frontier order by
  // ProcessFrontier's prologue.
  ooc::PartitionPager pager;
};

}  // namespace internal

namespace {
std::atomic<uint64_t> g_engines_constructed{0};
}  // namespace

uint64_t CgrTraversalEngine::ConstructedCount() {
  return g_engines_constructed.load(std::memory_order_relaxed);
}

CgrTraversalEngine::CgrTraversalEngine(const CgrGraph& graph,
                                       const GcgtOptions& options)
    : graph_(graph), options_(options) {
  g_engines_constructed.fetch_add(1, std::memory_order_relaxed);
}

CgrTraversalEngine::~CgrTraversalEngine() = default;

void CgrTraversalEngine::ResetPager() const {
  if (scratch_) scratch_->pager.Reset();
}

uint64_t CgrTraversalEngine::PagerResidentPeak() const {
  return scratch_ ? scratch_->pager.resident_bytes_peak() : 0;
}

internal::EngineScratch& CgrTraversalEngine::Scratch() const {
  if (!scratch_) {
    scratch_ = std::make_unique<internal::EngineScratch>(graph_, options_);
  }
  return *scratch_;
}

void CgrTraversalEngine::ProcessFrontier(std::span<const NodeId> frontier,
                                         FrontierFilter& filter,
                                         std::vector<NodeId>* out_frontier,
                                         std::vector<simt::WarpStats>* warp_stats,
                                         StepTrace* trace) const {
  if (frontier.empty()) return;
  const size_t lanes = static_cast<size_t>(options_.lanes);
  internal::EngineScratch& scratch = Scratch();

  // Pager prologue (serial, frontier order): fault in every partition this
  // round's expansion will decode from, pinning it so the round's own
  // working set can't evict itself. The external-tier traffic is charged as
  // one standalone maintenance WarpStats entry: faults and spills are not
  // any warp's decode work, and a dedicated entry keeps the in-core mem_txns
  // semantics untouched — which is what keeps results and all pre-existing
  // charges bit-identical to the in-core run.
  if (scratch.pager.enabled()) {
    simt::WarpStats page;
    for (NodeId u : frontier) {
      const ooc::PartitionPager::Touch t = scratch.pager.TouchNode(u);
      page.partition_faults += t.faults;
      page.partition_spills += t.spills;
      page.partition_pins += t.pins;
      page.fault_txns += t.fault_txns;
      page.spill_txns += t.spill_txns;
    }
    scratch.pager.EndRound();
    warp_stats->push_back(page);
  }

  const size_t num_chunks = (frontier.size() + lanes - 1) / lanes;

  // Serial reference path: one chunk at a time, filter decisions inline.
  // Taken for single-threaded configs, StepTrace recording (trace steps of
  // concurrent warps would interleave), and single-chunk frontiers (nothing
  // to parallelize).
  const bool serial = options_.num_threads == 1 || trace != nullptr ||
                      num_chunks == 1 || scratch.pool->num_threads() == 1;
  if (serial) {
    for (size_t off = 0; off < frontier.size(); off += lanes) {
      size_t n = std::min<size_t>(lanes, frontier.size() - off);
      warp_stats->push_back(scratch.serial_sim.RunSerial(
          frontier.subspan(off, n), filter, out_frontier, trace));
    }
    return;
  }

  // Phase 1 (parallel): every worker enumerates its chunks' (u, v) pairs,
  // charges all decision-independent costs, and runs the filter's claim pass
  // per append slot (atomic claims + candidate recording — see
  // FrontierFilter::ClaimBatch). The warp walk never reads filter state, so
  // this is exact regardless of scheduling.
  filter.PrepareClaims();
  scratch.records.assign(num_chunks, internal::ChunkRecord{});
  for (auto& w : scratch.workers) w->arena.Clear();
  scratch.pool->ParallelFor(
      num_chunks, 1, [&](size_t worker, size_t begin, size_t end) {
        internal::WorkerState& ws = *scratch.workers[worker];
        for (size_t ci = begin; ci < end; ++ci) {
          const size_t off = ci * lanes;
          const size_t n = std::min<size_t>(lanes, frontier.size() - off);
          internal::ChunkRecord& rec = scratch.records[ci];
          rec.worker = static_cast<uint32_t>(worker);
          rec.chunk_size = static_cast<uint32_t>(n);
          rec.cand_begin = ws.arena.cands.size();
          rec.batch_begin = ws.arena.batch_ends.size();
          ClaimBatchWriter writer(ws.arena, static_cast<uint64_t>(ci) << 32);
          rec.stats =
              ws.sim.RunEnumerate(frontier.subspan(off, n), filter, writer);
          rec.batch_end = ws.arena.batch_ends.size();
        }
      });

  // Phase 2 (parallel): with every chunk's claims in place, the filter
  // settles the order-independent decisions per chunk — for claim-based
  // filters the minimum-rank claimant of each label is exactly the edge the
  // serial engine would have accepted, so winners apply their label writes
  // and compact the accepted targets here, race-free.
  for (auto& w : scratch.workers) w->arena.PrepareResolve();
  scratch.pool->ParallelFor(
      num_chunks, 1, [&](size_t /*worker*/, size_t begin, size_t end) {
        for (size_t ci = begin; ci < end; ++ci) {
          internal::ChunkRecord& rec = scratch.records[ci];
          ChunkClaims claims(scratch.workers[rec.worker]->arena, rec.cand_begin,
                             rec.batch_begin, rec.batch_end);
          filter.ResolveChunk(claims);
        }
      });

  // Phase 3 (serial prefix-sum merge, chunk order): concatenate the
  // per-chunk claim buffers into the global out-frontier and charge the
  // decision-dependent costs. Only two charge kinds depend on decisions:
  //  - filter atomics (hooking CAS, sigma/delta atomicAdd), reported by
  //    MergeBatch per append slot;
  //  - the queue-append line transactions, reconstructed from each slot's
  //    queue tail + accepted count (simt::QueueAppendCharges; label-write
  //    lines are always a subset of the visited-check gather already charged
  //    in phase 1). Order-dependent filter effects (running claim minima,
  //    float accumulation) also run here, in serial order.
  const int line_bytes = options_.cost.cache_line_bytes;
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    internal::ChunkRecord& rec = scratch.records[ci];
    ChunkClaims claims(scratch.workers[rec.worker]->arena, rec.cand_begin,
                       rec.batch_begin, rec.batch_end);
    simt::QueueAppendCharges charges(kQueueBase, 4, line_bytes, rec.chunk_size);
    for (size_t b = 0; b < claims.num_batches(); ++b) {
      const size_t tail = out_frontier->size();
      if (int extra = filter.MergeBatch(claims, b, out_frontier); extra > 0) {
        rec.stats.atomics += static_cast<uint64_t>(extra);
      }
      rec.stats.mem_txns += charges.Charge(tail, out_frontier->size() - tail);
    }
    warp_stats->push_back(rec.stats);
  }
}

}  // namespace gcgt
