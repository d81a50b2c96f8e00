#include "intersect/compressed_cursor.h"

#include <algorithm>

namespace gcgt::intersect {

RunCursor RunCursor::Compressed(const CgrGraph& g, NodeId u,
                                CursorCharges* ch) {
  RunCursor c;
  c.ch_ = ch;
  c.graph_ = &g;
  c.u_ = u;
  ch->Offsets(u);
  const uint64_t start_byte = g.bit_start(u) / 8;

  if (g.options().codec != CodecId::kCgr) {
    c.mode_ = Mode::kBytes;
    c.bstream_ = ByteCodecStream(g, u);
    ch->codewords += 1;  // LEB128 degree header
    if (c.bstream_.header_end_byte() > start_byte) {
      ch->Bytes(start_byte, c.bstream_.header_end_byte() - 1);
    }
    c.done_ = false;
    c.FetchNextRun(false, 0);
    return c;
  }

  c.mode_ = Mode::kCgr;
  c.dec_.emplace(g, u);
  CgrNodeDecoder& dec = *c.dec_;
  c.segmented_ = g.options().segment_len_bytes != 0;
  uint64_t residual_count = 0;  // unsegmented only
  if (!c.segmented_) {
    const uint64_t deg = dec.ReadDegree();
    ch->codewords += 1;
    if (deg == 0) {
      ch->Bytes(start_byte, dec.byte_pos());
      return c;  // done_
    }
    const uint32_t itv_count = dec.ReadIntervalCount();
    ch->codewords += 1;
    c.intervals_.reserve(itv_count);
    for (uint32_t i = 0; i < itv_count; ++i) {
      c.intervals_.push_back(dec.ReadNextInterval());
      ch->codewords += 2;
    }
    residual_count = deg - dec.interval_neighbor_total();
    ch->Bytes(start_byte, dec.byte_pos());
    c.stream_ = dec.UnsegmentedResiduals(residual_count);
    c.stream_open_ = residual_count > 0;
    c.stream_byte_ = c.stream_.byte_pos();
  } else {
    const uint32_t itv_count = dec.ReadIntervalCount();
    ch->codewords += 1;
    c.intervals_.reserve(itv_count);
    for (uint32_t i = 0; i < itv_count; ++i) {
      c.intervals_.push_back(dec.ReadNextInterval());
      ch->codewords += 2;
    }
    c.seg_count_ = dec.ReadSegmentCount();
    ch->codewords += 1;
    ch->Bytes(start_byte, dec.byte_pos());
    c.next_seg_ = 0;
    c.stream_open_ = false;
  }
  c.done_ = false;
  c.FetchNextRun(false, 0);
  return c;
}

RunCursor RunCursor::Decoded(std::span<const NodeId> elems, uint64_t base_addr,
                             CursorCharges* ch) {
  RunCursor c;
  c.mode_ = Mode::kDecoded;
  c.ch_ = ch;
  c.elems_ = elems;
  c.base_addr_ = base_addr;
  c.done_ = false;
  c.FetchNextRun(false, 0);
  return c;
}

NodeId RunCursor::DecodeOne() {
  const NodeId v = stream_.Next();
  ch_->codewords += 1;
  const uint64_t b = stream_.byte_pos();
  ch_->Bytes(stream_byte_, std::max(stream_byte_, b));
  stream_byte_ = b;
  return v;
}

bool RunCursor::PeekNextSegment() {
  while (next_seg_ < seg_count_) {
    const uint32_t idx = next_seg_++;
    const uint64_t seg_byte = dec_->SegmentBitPos(idx) / 8;
    ResidualStream s = dec_->SegmentResiduals(idx);
    ch_->codewords += 1;  // segment count header
    if (!s.HasNext()) {  // empty segment: header read charged, keep scanning
      ch_->Bytes(seg_byte,
                 std::max(seg_byte, static_cast<uint64_t>(s.byte_pos())));
      continue;
    }
    peek_first_ = s.Next();
    ch_->codewords += 1;
    peek_byte_ = std::max(seg_byte, static_cast<uint64_t>(s.byte_pos()));
    ch_->Bytes(seg_byte, peek_byte_);
    peek_stream_ = s;
    peek_valid_ = true;
    return true;
  }
  return false;
}

void RunCursor::AdoptPeek() {
  stream_ = peek_stream_;
  stream_open_ = true;
  stream_byte_ = peek_byte_;
  pending_ = peek_first_;
  pending_valid_ = true;
  peek_valid_ = false;
}

bool RunCursor::FillPending(bool target_set, NodeId target) {
  if (mode_ == Mode::kBytes) {
    if (pending_valid_) return true;
    if (bbuf_pos_ == bbuf_len_) {
      if (!bstream_.HasNext()) return false;
      const ByteBlock blk = bstream_.NextBlock();
      ch_->codewords += blk.count;
      ch_->Bytes(blk.ctrl_byte, blk.ctrl_byte);
      if (blk.data_last >= blk.data_first) {
        ch_->Bytes(blk.data_first, blk.data_last);
      }
      for (uint32_t i = 0; i < blk.count; ++i) bbuf_[i] = blk.vals[i];
      bbuf_pos_ = 0;
      bbuf_len_ = blk.count;
    }
    pending_ = bbuf_[bbuf_pos_++];
    pending_valid_ = true;
    return true;
  }

  // kCgr. Segment-skip gallop: while the next segment's first residual is
  // still <= target, every undelivered value before it (the pending value
  // and the current segment's undecoded tail) is strictly smaller than that
  // first residual — residuals ascend across segments — and hence strictly
  // below target, so the whole tail is skipped without paying its decode
  // codewords. <= (not <) so a first residual equal to the target is
  // delivered, never skipped past. A peek that overshoots stays cached for
  // the sequential path and is never re-charged.
  if (segmented_ && target_set) {
    while (!(pending_valid_ && pending_ >= target)) {
      if (!peek_valid_ && !PeekNextSegment()) break;
      if (peek_first_ > target) break;
      AdoptPeek();
      ch_->ops += 1;  // one gallop step (segment jump)
    }
  }
  if (pending_valid_) return true;
  if (stream_open_ && stream_.HasNext()) {
    pending_ = DecodeOne();
    pending_valid_ = true;
    return true;
  }
  stream_open_ = false;
  if (!peek_valid_ && !(segmented_ && PeekNextSegment())) return false;
  AdoptPeek();
  return true;
}

void RunCursor::FetchNextRun(bool target_set, NodeId target) {
  if (mode_ == Mode::kDecoded) {
    if (pos_ >= elems_.size()) {
      done_ = true;
      return;
    }
    lo_ = hi_ = elems_[pos_];
    ch_->ctx->MemAccessRange(base_addr_ + 4ull * pos_, 4);
    ++pos_;
    return;
  }

  const bool has_r = FillPending(target_set, target);
  const bool has_i = itv_pos_ < intervals_.size();
  if (!has_r && !has_i) {
    done_ = true;
    return;
  }
  if (has_r && (!has_i || pending_ < intervals_[itv_pos_].start)) {
    lo_ = hi_ = pending_;
    pending_valid_ = false;
  } else {
    const CgrInterval& itv = intervals_[itv_pos_++];
    lo_ = itv.start;
    hi_ = itv.start + itv.len - 1;
  }
}

void RunCursor::SkipToAtLeast(NodeId target) {
  if (mode_ == Mode::kDecoded) {
    // The current (already fetched) element may be the target: pos_ sits
    // PAST it, so galloping would silently drop it.
    if (!done_ && hi_ >= target) return;
    // Gallop from pos_: exponential probes to bracket the target, then a
    // binary search, charging one op and one 4-byte probe read per
    // comparison.
    auto probe = [&](size_t i) {
      ch_->ops += 1;
      ch_->ctx->MemAccessRange(base_addr_ + 4ull * i, 4);
      return elems_[i];
    };
    size_t lo_idx = pos_;
    size_t step = 1;
    while (lo_idx + step < elems_.size() &&
           probe(lo_idx + step) < target) {
      lo_idx += step;
      step *= 2;
    }
    size_t hi_idx = std::min(elems_.size(), lo_idx + step + 1);
    while (lo_idx < hi_idx) {
      const size_t mid = lo_idx + (hi_idx - lo_idx) / 2;
      if (probe(mid) < target) {
        lo_idx = mid + 1;
      } else {
        hi_idx = mid;
      }
    }
    pos_ = lo_idx;
    FetchNextRun(false, 0);
    return;
  }
  while (!done_ && hi_ < target) {
    ch_->ops += 1;
    FetchNextRun(true, target);
  }
  // An interval run straddling the target ([lo_, hi_] with lo_ < target <=
  // hi_) would otherwise deliver its below-target prefix, which the skip's
  // callers must never see: the merge's skip branches rely on "everything
  // below the target is gone" (elements under the other side's run lower
  // bound cannot match anything it still holds), and triangle counting's
  // SkipToAtLeast(v + 1) defines the w > v orientation. Deliver the suffix.
  if (!done_ && lo_ < target) lo_ = target;
}

}  // namespace gcgt::intersect
