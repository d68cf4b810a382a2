// Cooperative cancellation for long-running queries.
//
// A CancellationToken carries an explicit cancel flag and an optional
// absolute deadline. The search hot loops poll `Expired()` and bail out
// early: MESSI every 64 node visits of its tree traversal and once per
// leaf it refines, ParIS once per filter/refine batch. The query entry
// points then surface `StatusCode::kDeadlineExceeded` instead of a
// partial answer. Polling is cheap: one relaxed atomic load on the fast
// path, with the clock consulted only until the first expiry (which
// latches into the flag so later polls never touch the clock again).
#ifndef PARISAX_UTIL_CANCELLATION_H_
#define PARISAX_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>

namespace parisax {

/// Shared cancel/deadline state for one query. The owner (caller or
/// QueryService task) must keep the token alive for the whole search;
/// search paths hold only a raw pointer.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token that never expires on its own (still cancellable).
  CancellationToken() = default;

  /// A token that expires at `deadline`.
  explicit CancellationToken(Clock::time_point deadline)
      : has_deadline_(true), deadline_(deadline) {}

  /// A token that expires `timeout` from now.
  static CancellationToken After(Clock::duration timeout) {
    return CancellationToken(Clock::now() + timeout);
  }

  /// Requests cancellation. Safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once cancelled or past the deadline. The first deadline hit
  /// latches into the cancel flag, so steady-state polling is one
  /// relaxed load.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_ && Clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

 private:
  mutable std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

/// Null-safe poll helper for the `const CancellationToken*` threaded
/// through query options (null means "never expires").
inline bool Expired(const CancellationToken* token) {
  return token != nullptr && token->Expired();
}

}  // namespace parisax

#endif  // PARISAX_UTIL_CANCELLATION_H_
