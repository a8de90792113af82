#include "util/cancel.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace epfis {

struct CancellationToken::State {
  std::atomic<bool> fired{false};
};

CancellationToken CancellationToken::Create() {
  return CancellationToken(std::make_shared<State>());
}

bool CancellationToken::cancelled() const {
  return state_ != nullptr && state_->fired.load(std::memory_order_relaxed);
}

void CancellationToken::Cancel() const {
  if (!state_) return;
  if (!state_->fired.exchange(true, std::memory_order_relaxed)) {
    static Counter fired = MetricsRegistry::Global().GetCounter("cancel.fired");
    fired.Increment();
  }
}

Deadline Deadline::After(std::chrono::nanoseconds d) {
  Deadline dl;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  if (d.count() >= kInfiniteNs - now) return dl;  // saturate to infinite
  dl.ns_ = now + std::max<int64_t>(d.count(), 0);
  return dl;
}

bool Deadline::expired() const {
  if (infinite()) return false;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  return now >= ns_;
}

Status CheckCancel(const CancellationToken& token, const Deadline& deadline,
                   const char* what) {
  if (token.cancelled()) {
    return Status::Cancelled(std::string(what) + " cancelled");
  }
  if (deadline.expired()) {
    return Status::DeadlineExceeded(std::string(what) + " deadline exceeded");
  }
  return Status::Ok();
}

}  // namespace epfis
