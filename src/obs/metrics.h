#ifndef EPFIS_OBS_METRICS_H_
#define EPFIS_OBS_METRICS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// Compile-time gate for the whole instrumentation layer. The build sets
/// it from the EPFIS_METRICS CMake option (default ON); with it OFF every
/// handle operation below is an empty inline function and registries hand
/// out inert handles, so instrumented call sites compile away to nothing
/// and need no #ifdefs of their own.
#ifndef EPFIS_METRICS_ENABLED
#define EPFIS_METRICS_ENABLED 1
#endif

namespace epfis {

namespace obs_detail {
struct Core;
// Single-writer-per-thread slot update: each calling thread owns a private
// shard, so the add is load+store (no RMW) with relaxed ordering — about
// the cost of a plain increment once the shard pointer is cached.
void AddToSlot(const std::shared_ptr<Core>& core, uint32_t slot,
               uint64_t delta);
// AddToSlot for n slots with one shard lookup; zero deltas and slots of
// members that failed to register are skipped.
void AddToSlots(const std::shared_ptr<Core>& core, const uint32_t* slots,
                const uint64_t* deltas, size_t n);
// One histogram sample: bumps the sum slot and the log2 bucket slot.
void RecordValue(const std::shared_ptr<Core>& core, uint32_t base,
                 uint64_t value);
void GaugeSet(const std::shared_ptr<Core>& core, uint32_t index,
              int64_t value);
void GaugeAdd(const std::shared_ptr<Core>& core, uint32_t index,
              int64_t delta);
}  // namespace obs_detail

/// Monotonically increasing event count. Handles are cheap values; the
/// canonical use is a function-local static resolved once per site:
///
///   static Counter hits = MetricsRegistry::Global().GetCounter("x.hits");
///   hits.Increment();
///
/// A default-constructed (or metrics-disabled) handle is inert.
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t delta = 1) {
#if EPFIS_METRICS_ENABLED
    if (core_ != nullptr) obs_detail::AddToSlot(core_, slot_, delta);
#else
    (void)delta;
#endif
  }

 private:
  friend class MetricsRegistry;
  Counter(std::shared_ptr<obs_detail::Core> core, uint32_t slot)
      : core_(std::move(core)), slot_(slot) {}

  std::shared_ptr<obs_detail::Core> core_;
  uint32_t slot_ = 0;
};

/// N counters of one registry that are added to together. A site that
/// tallies several counts in locals and flushes them once per call pays
/// one shard lookup for the flush, where N Counter::Increment calls pay
/// N. Members are the same metrics GetCounter hands out under the same
/// names. A default-constructed (or metrics-disabled) group is inert, and
/// a member whose name is registered as another type is inert alone.
template <size_t N>
class CounterGroup {
 public:
  CounterGroup() = default;

  /// Adds deltas[i] to the i-th counter of the group.
  void Add(const std::array<uint64_t, N>& deltas) {
#if EPFIS_METRICS_ENABLED
    if (core_ != nullptr) {
      obs_detail::AddToSlots(core_, slots_.data(), deltas.data(), N);
    }
#else
    (void)deltas;
#endif
  }

 private:
  friend class MetricsRegistry;

  std::shared_ptr<obs_detail::Core> core_;
  std::array<uint32_t, N> slots_{};
};

/// Point-in-time signed value (work in flight, configured sizes). Unlike
/// counters, gauges are written with plain atomic ops (set is a store,
/// add is a fetch_add): they are assumed to live outside hot loops.
class Gauge {
 public:
  Gauge() = default;

  void Set(int64_t value) {
#if EPFIS_METRICS_ENABLED
    if (core_ != nullptr) obs_detail::GaugeSet(core_, index_, value);
#else
    (void)value;
#endif
  }

  void Add(int64_t delta) {
#if EPFIS_METRICS_ENABLED
    if (core_ != nullptr) obs_detail::GaugeAdd(core_, index_, delta);
#else
    (void)delta;
#endif
  }

 private:
  friend class MetricsRegistry;
  Gauge(std::shared_ptr<obs_detail::Core> core, uint32_t index)
      : core_(std::move(core)), index_(index) {}

  std::shared_ptr<obs_detail::Core> core_;
  uint32_t index_ = 0;
};

/// Histogram over uint64 samples with fixed log2 buckets: bucket i counts
/// samples whose bit width is i, i.e. bucket 0 holds the value 0 and
/// bucket i >= 1 holds [2^(i-1), 2^i). 65 buckets cover the full uint64
/// range, so recording never needs bounds logic. Latencies are recorded
/// in nanoseconds by convention (name the metric *_ns).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  void Record(uint64_t value) {
#if EPFIS_METRICS_ENABLED
    if (core_ != nullptr) obs_detail::RecordValue(core_, base_, value);
#else
    (void)value;
#endif
  }

 private:
  friend class MetricsRegistry;
  LatencyHistogram(std::shared_ptr<obs_detail::Core> core, uint32_t base)
      : core_(std::move(core)), base_(base) {}

  std::shared_ptr<obs_detail::Core> core_;
  uint32_t base_ = 0;
};

/// RAII wall-time probe: records the scope's duration in nanoseconds into
/// a LatencyHistogram on destruction. With metrics compiled out it never
/// reads the clock.
#if EPFIS_METRICS_ENABLED
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram hist)
      : hist_(std::move(hist)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    hist_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram hist_;
  std::chrono::steady_clock::time_point start_;
};
#else
class ScopedTimer {
 public:
  explicit ScopedTimer(const LatencyHistogram&) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};
#endif

/// Aggregated view of one histogram at snapshot time.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// buckets[i] = samples with bit width i (see LatencyHistogram).
  std::vector<uint64_t> buckets;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Inclusive upper bound of bucket `i` (2^i - 1; saturates at i >= 64).
  static uint64_t BucketUpperBound(size_t i);
  /// Upper bound of the bucket containing the p-quantile, p in [0, 1].
  uint64_t PercentileUpperBound(double p) const;
};

/// Point-in-time aggregation of a MetricsRegistry: all shards (live and
/// retired) summed per metric. Counter/histogram totals may trail in-flight
/// updates by a few events, but never go backwards between snapshots of a
/// quiescent registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Human-readable dump, one metric per line, sorted by name:
  ///   counter est_io.estimates 42
  ///   gauge pool.workers 8
  ///   histogram lru_fit.simulate_ns count=3 sum=... mean=... p50<=... p99<=...
  std::string ToText() const;
  /// Machine-readable dump; histogram buckets are [upper_bound, count]
  /// pairs with zero buckets omitted.
  std::string ToJson() const;
};

/// Process-wide metric sink, built for instrumenting code that is itself
/// the benchmark: registration takes a lock, but updates touch only a
/// thread-local shard of relaxed atomics (single writer per slot), so a
/// counter bump costs a cached pointer compare plus a load/add/store.
/// Snapshot() aggregates every thread's shard under the registration lock;
/// shards of exited threads are folded into a retired accumulator first,
/// so no updates are ever lost.
///
/// Metric names are registered on first Get* call; repeated calls with the
/// same name return handles to the same metric. A name already registered
/// as a different type, or registration beyond the fixed slot budget,
/// yields an inert handle rather than an error — observability must never
/// take down the pipeline it observes.
///
/// Instrumented library code uses Global(); tests construct private
/// registries for isolation.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The registry instrumented library code reports into. Never destroyed
  /// (intentionally leaked), so handles and thread-exit folding stay valid
  /// during process teardown.
  static MetricsRegistry& Global();

  Counter GetCounter(std::string_view name);
  Gauge GetGauge(std::string_view name);
  LatencyHistogram GetHistogram(std::string_view name);

  /// The counters `names` as one CounterGroup, in that order.
  template <size_t N>
  CounterGroup<N> GetCounterGroup(
      const std::array<std::string_view, N>& names) {
    CounterGroup<N> group;
#if EPFIS_METRICS_ENABLED
    RegisterCounters(names.data(), group.slots_.data(), N);
    group.core_ = core_;
#else
    (void)names;
#endif
    return group;
  }

  MetricsSnapshot Snapshot() const;

 private:
  // Registers each name as a counter and writes its slot, or an inert
  // slot that AddToSlots skips when the name has another type or the
  // slot budget is spent.
  void RegisterCounters(const std::string_view* names, uint32_t* slots,
                        size_t n);

  std::shared_ptr<obs_detail::Core> core_;
};

}  // namespace epfis

#endif  // EPFIS_OBS_METRICS_H_
