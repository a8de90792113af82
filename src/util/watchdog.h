#ifndef EPFIS_UTIL_WATCHDOG_H_
#define EPFIS_UTIL_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.h"

namespace epfis {

/// Detects stalled workers. A long-running activity (a shard worker)
/// registers a Heartbeat with a budget and its owning
/// CancellationToken, then calls Beat() at loop boundaries. A background
/// monitor thread scans registered heartbeats; one that goes silent past
/// its budget is "tripped": the owning token fires (cancelling the whole
/// job cooperatively) and "watchdog.trips" is bumped. Dropping the
/// Heartbeat handle deregisters it — the monitor holds weak references
/// only, so a finished worker needs no explicit unwatch call.
///
/// The monitor thread is lazy: it starts on the first Watch() and idles on
/// a condition variable between scan intervals, so an idle Watchdog costs
/// nothing but its object.
class Watchdog {
 public:
  struct Options {
    /// Monitor scan cadence; trips are detected within roughly one
    /// interval after a budget is exceeded.
    std::chrono::nanoseconds poll_interval = std::chrono::milliseconds(10);
  };

  /// A registered activity. Workers call Beat(); the monitor reads the
  /// last-beat stamp. Destroying the handle deregisters the activity.
  class Heartbeat {
   public:
    /// Marks the activity live "now". Relaxed store; safe from any thread.
    void Beat();

    /// True once the monitor has fired the owning token for this handle.
    bool tripped() const { return tripped_.load(std::memory_order_relaxed); }

    const std::string& name() const { return name_; }

   private:
    friend class Watchdog;
    std::string name_;
    int64_t budget_ns_ = 0;
    CancellationToken token_;
    std::atomic<int64_t> last_beat_ns_{0};
    std::atomic<bool> tripped_{false};
  };

  Watchdog();  // Default options.
  explicit Watchdog(Options options);

  /// Stops the monitor thread. Outstanding Heartbeat handles stay valid
  /// (Beat() still works) but are no longer monitored.
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers an activity: if more than `budget` elapses between Beat()
  /// calls (the registration itself counts as the first beat), `token` is
  /// fired. Hold the returned handle for the activity's lifetime.
  std::shared_ptr<Heartbeat> Watch(std::string name,
                                   std::chrono::nanoseconds budget,
                                   CancellationToken token);

  /// Number of heartbeats tripped by this instance.
  uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }

 private:
  void MonitorLoop();

  Options options_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::weak_ptr<Heartbeat>> watched_;
  std::thread monitor_;
  std::atomic<uint64_t> trips_{0};
};

}  // namespace epfis

#endif  // EPFIS_UTIL_WATCHDOG_H_
