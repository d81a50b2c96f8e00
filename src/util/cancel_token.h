// Cooperative cancellation and deadlines for long-running queries.
//
// A CancelSource is the writer end (the client that may abort a query); a
// CancelToken is the cheap, copyable reader end threaded down through
// GcgtSession::Run into TraversalPipeline's round loop. Engines poll
// Check() at safe points (once per traversal round, between BC sources) and
// abort with Status::Cancelled / Status::DeadlineExceeded — cooperative, so
// a traversal never stops mid-round with partial label writes: an aborted
// query leaves only per-query scratch state, which the next Reset() clears.
//
// Deadlines are absolute steady_clock time points carried BY VALUE in the
// token (merging a service-level default deadline onto a client token never
// mutates shared state); the cancel flag is the only shared piece. A
// default-constructed token can never expire and its Check() is branch-cheap
// (no clock read), so un-deadlined queries pay nothing.
#ifndef GCGT_UTIL_CANCEL_TOKEN_H_
#define GCGT_UTIL_CANCEL_TOKEN_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "util/status.h"

namespace gcgt {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never cancels, never expires.
  CancelToken() = default;

  /// A token with no writer that expires at `deadline`.
  static CancelToken WithDeadline(Clock::time_point deadline) {
    CancelToken token;
    token.deadline_ = deadline;
    return token;
  }

  /// This token with its deadline tightened to min(current, `deadline`) —
  /// how a service layers its default timeout onto a client's token without
  /// touching the shared cancel flag.
  CancelToken WithDeadlineMin(Clock::time_point deadline) const {
    CancelToken token(*this);
    if (deadline < token.deadline_) token.deadline_ = deadline;
    return token;
  }

  bool has_deadline() const { return deadline_ != Clock::time_point::max(); }
  Clock::time_point deadline() const { return deadline_; }

  /// True when Check() can ever return non-OK — lets hot loops skip the
  /// clock read for default tokens.
  bool CanExpire() const { return flag_ != nullptr || has_deadline(); }

  /// True once the source was cancelled (deadline not considered).
  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

  /// OK, Cancelled (explicit cancel wins) or DeadlineExceeded as of `now`.
  /// The explicit-now overload exists so deadline logic is testable without
  /// real sleeps.
  Status CheckAt(Clock::time_point now) const {
    if (cancelled()) return Status::Cancelled("query was cancelled");
    if (now >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  Status Check() const {
    if (!CanExpire()) return Status::OK();  // no clock read on the fast path
    if (cancelled()) return Status::Cancelled("query was cancelled");
    if (!has_deadline()) return Status::OK();
    return CheckAt(Clock::now());
  }

 private:
  friend class CancelSource;
  std::shared_ptr<const std::atomic<bool>> flag_;  // null: never cancelled
  Clock::time_point deadline_ = Clock::time_point::max();
};

/// The writer end: owns the shared cancel flag and hands out tokens.
/// Cancel() is sticky, idempotent and safe to call from any thread while
/// queries holding tokens are in flight.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

  /// A token observing this source (optionally with a deadline too).
  CancelToken token() const {
    CancelToken t;
    t.flag_ = flag_;
    return t;
  }
  CancelToken token(CancelToken::Clock::time_point deadline) const {
    return token().WithDeadlineMin(deadline);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace gcgt

#endif  // GCGT_UTIL_CANCEL_TOKEN_H_
