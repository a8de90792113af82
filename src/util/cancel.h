#ifndef EPFIS_UTIL_CANCEL_H_
#define EPFIS_UTIL_CANCEL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace epfis {

/// Cooperative cancellation handle shared between a controller (which calls
/// Cancel) and any number of workers (which poll cancelled() at loop
/// boundaries). Copying a token copies the handle, not the flag: all copies
/// observe the same cancellation.
///
/// A default-constructed token is "null": it can never be cancelled and
/// cancelled() is a single branch, so hot loops may poll unconditionally.
/// Polling a live token is one relaxed atomic load, cheap enough for
/// per-chunk granularity.
class CancellationToken {
 public:
  /// Null token: valid to poll, never cancelled, Cancel() is a no-op.
  CancellationToken() = default;

  /// Makes a fresh live token.
  static CancellationToken Create();

  /// True when this is a live handle (not default-constructed).
  bool valid() const { return state_ != nullptr; }

  /// Relaxed-atomic poll; false for a null token.
  bool cancelled() const;

  /// Idempotently fires the token (and thus every copy). The first fire
  /// on a given token bumps the "cancel.fired" counter.
  void Cancel() const;

 private:
  struct State;
  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// A point on the steady clock by which work must finish. Deadlines are
/// value types; the default is infinite (never expires), so option structs
/// can carry one unconditionally with zero behavior change when unset.
class Deadline {
 public:
  /// Infinite deadline: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `d` from now on the steady clock.
  static Deadline After(std::chrono::nanoseconds d);
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  bool infinite() const { return ns_ == kInfiniteNs; }

  /// True when the steady clock has passed the deadline.
  bool expired() const;

 private:
  static constexpr int64_t kInfiniteNs = INT64_MAX;
  int64_t ns_ = kInfiniteNs;  // steady_clock time_since_epoch in ns
};

/// Poll helper for long-running loops: returns Cancelled / DeadlineExceeded
/// naming `what` when the token has fired or the deadline has passed, Ok
/// otherwise. Token fire wins when both hold (the controller's explicit
/// decision outranks the clock).
Status CheckCancel(const CancellationToken& token, const Deadline& deadline,
                   const char* what);

}  // namespace epfis

#endif  // EPFIS_UTIL_CANCEL_H_
