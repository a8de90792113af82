#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <optional>
#include <sstream>

namespace epfis {
namespace obs_detail {

// Fixed budgets. A shard is 32 KiB of atomics; the whole pipeline
// registers a few dozen metrics, so the caps are generous headroom, and
// fixed sizes mean updates never race container growth.
constexpr uint32_t kMaxSlots = 4096;
constexpr uint32_t kMaxGauges = 256;
constexpr uint32_t kHistogramBuckets = 65;       // bit_width(uint64) in [0, 64].
constexpr uint32_t kHistogramWidth = 1 + kHistogramBuckets;  // + sum slot.
// The slot of a CounterGroup member that could not be registered.
constexpr uint32_t kInertSlot = kMaxSlots;

struct Shard {
  std::array<std::atomic<uint64_t>, kMaxSlots> slots{};
};

enum class MetricType { kCounter, kGauge, kHistogram };

struct MetricInfo {
  MetricType type;
  std::string name;
  uint32_t base;   // First slot (counter/histogram) or gauge index.
  uint32_t width;  // Slots occupied (gauges occupy gauge cells instead).
};

struct Core {
  const uint64_t id;
  explicit Core(uint64_t id_in) : id(id_in) {}

  mutable std::mutex mu;
  // All three guarded by mu. Lookups scan `metrics` linearly: registration
  // happens once per call site, not per event.
  std::vector<MetricInfo> metrics;
  uint32_t next_slot = 0;
  uint32_t next_gauge = 0;
  std::vector<std::shared_ptr<Shard>> shards;
  std::array<uint64_t, kMaxSlots> retired{};
  // Fixed array so gauge updates never race a registration growing a
  // container; multi-writer, hence real atomic RMW in GaugeAdd.
  std::array<std::atomic<int64_t>, kMaxGauges> gauges{};
};

namespace {

std::atomic<uint64_t> next_core_id{1};

// Per-thread shard directory. Entries are matched by the owning core's
// unique id (never by address, which a later registry could reuse); on
// thread exit each shard's totals are folded into its core's retired
// accumulator so the counts survive the thread.
struct TlsShards {
  struct Entry {
    uint64_t core_id;
    std::weak_ptr<Core> weak;
    std::shared_ptr<Shard> shard;
  };
  std::vector<Entry> entries;
  uint64_t last_id = 0;
  Shard* last_shard = nullptr;

  ~TlsShards() {
    for (Entry& entry : entries) {
      std::shared_ptr<Core> core = entry.weak.lock();
      if (core == nullptr) continue;
      std::lock_guard<std::mutex> lock(core->mu);
      for (uint32_t i = 0; i < core->next_slot; ++i) {
        uint64_t v = entry.shard->slots[i].load(std::memory_order_relaxed);
        if (v != 0) core->retired[i] += v;
      }
      core->shards.erase(
          std::remove(core->shards.begin(), core->shards.end(), entry.shard),
          core->shards.end());
    }
  }
};

Shard* LocalShard(const std::shared_ptr<Core>& core) {
  thread_local TlsShards tls;
  if (tls.last_id == core->id) return tls.last_shard;
  for (TlsShards::Entry& entry : tls.entries) {
    if (entry.core_id == core->id) {
      tls.last_id = entry.core_id;
      tls.last_shard = entry.shard.get();
      return tls.last_shard;
    }
  }
  auto shard = std::make_shared<Shard>();
  {
    std::lock_guard<std::mutex> lock(core->mu);
    core->shards.push_back(shard);
  }
  tls.entries.push_back(TlsShards::Entry{core->id, core, shard});
  tls.last_id = core->id;
  tls.last_shard = shard.get();
  return tls.last_shard;
}

uint32_t BucketIndex(uint64_t value) {
  return static_cast<uint32_t>(std::bit_width(value));
}

}  // namespace

void AddToSlot(const std::shared_ptr<Core>& core, uint32_t slot,
               uint64_t delta) {
  std::atomic<uint64_t>& cell = LocalShard(core)->slots[slot];
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void AddToSlots(const std::shared_ptr<Core>& core, const uint32_t* slots,
                const uint64_t* deltas, size_t n) {
  Shard* shard = LocalShard(core);
  for (size_t i = 0; i < n; ++i) {
    if (deltas[i] == 0 || slots[i] == kInertSlot) continue;
    std::atomic<uint64_t>& cell = shard->slots[slots[i]];
    cell.store(cell.load(std::memory_order_relaxed) + deltas[i],
               std::memory_order_relaxed);
  }
}

void RecordValue(const std::shared_ptr<Core>& core, uint32_t base,
                 uint64_t value) {
  Shard* shard = LocalShard(core);
  std::atomic<uint64_t>& sum = shard->slots[base];
  sum.store(sum.load(std::memory_order_relaxed) + value,
            std::memory_order_relaxed);
  std::atomic<uint64_t>& bucket = shard->slots[base + 1 + BucketIndex(value)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
}

void GaugeSet(const std::shared_ptr<Core>& core, uint32_t index,
              int64_t value) {
  core->gauges[index].store(value, std::memory_order_relaxed);
}

void GaugeAdd(const std::shared_ptr<Core>& core, uint32_t index,
              int64_t delta) {
  core->gauges[index].fetch_add(delta, std::memory_order_relaxed);
}

namespace {

// Shared registration path: finds `name` or registers it with `width`
// slots (or one gauge cell). Returns the metric's base, or nullopt for a
// type mismatch or an exhausted budget (callers then hand out an inert
// handle).
std::optional<uint32_t> RegisterMetric(Core& core, std::string_view name,
                                       MetricType type, uint32_t width) {
  std::lock_guard<std::mutex> lock(core.mu);
  for (const MetricInfo& info : core.metrics) {
    if (info.name == name) {
      if (info.type != type) return std::nullopt;
      return info.base;
    }
  }
  uint32_t base;
  if (type == MetricType::kGauge) {
    if (core.next_gauge >= kMaxGauges) return std::nullopt;
    base = core.next_gauge++;
  } else {
    if (core.next_slot > kMaxSlots - width) return std::nullopt;
    base = core.next_slot;
    core.next_slot += width;
  }
  core.metrics.push_back(MetricInfo{type, std::string(name), base, width});
  return base;
}

}  // namespace
}  // namespace obs_detail

MetricsRegistry::MetricsRegistry()
    : core_(std::make_shared<obs_detail::Core>(
          obs_detail::next_core_id.fetch_add(1, std::memory_order_relaxed))) {}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter MetricsRegistry::GetCounter(std::string_view name) {
#if EPFIS_METRICS_ENABLED
  auto base = obs_detail::RegisterMetric(*core_, name,
                                         obs_detail::MetricType::kCounter, 1);
  if (base.has_value()) return Counter(core_, *base);
#else
  (void)name;
#endif
  return Counter();
}

void MetricsRegistry::RegisterCounters(const std::string_view* names,
                                       uint32_t* slots, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    auto base = obs_detail::RegisterMetric(
        *core_, names[i], obs_detail::MetricType::kCounter, 1);
    slots[i] = base.value_or(obs_detail::kInertSlot);
  }
}

Gauge MetricsRegistry::GetGauge(std::string_view name) {
#if EPFIS_METRICS_ENABLED
  auto base = obs_detail::RegisterMetric(*core_, name,
                                         obs_detail::MetricType::kGauge, 1);
  if (base.has_value()) return Gauge(core_, *base);
#else
  (void)name;
#endif
  return Gauge();
}

LatencyHistogram MetricsRegistry::GetHistogram(std::string_view name) {
#if EPFIS_METRICS_ENABLED
  auto base = obs_detail::RegisterMetric(*core_, name,
                                         obs_detail::MetricType::kHistogram,
                                         obs_detail::kHistogramWidth);
  if (base.has_value()) return LatencyHistogram(core_, *base);
#else
  (void)name;
#endif
  return LatencyHistogram();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
#if EPFIS_METRICS_ENABLED
  using obs_detail::MetricType;
  std::lock_guard<std::mutex> lock(core_->mu);
  std::array<uint64_t, obs_detail::kMaxSlots> totals = core_->retired;
  for (const auto& shard : core_->shards) {
    for (uint32_t i = 0; i < core_->next_slot; ++i) {
      totals[i] += shard->slots[i].load(std::memory_order_relaxed);
    }
  }
  for (const obs_detail::MetricInfo& info : core_->metrics) {
    switch (info.type) {
      case MetricType::kCounter:
        snapshot.counters[info.name] = totals[info.base];
        break;
      case MetricType::kGauge:
        snapshot.gauges[info.name] =
            core_->gauges[info.base].load(std::memory_order_relaxed);
        break;
      case MetricType::kHistogram: {
        HistogramSnapshot hist;
        hist.sum = totals[info.base];
        hist.buckets.assign(obs_detail::kHistogramBuckets, 0);
        for (uint32_t b = 0; b < obs_detail::kHistogramBuckets; ++b) {
          hist.buckets[b] = totals[info.base + 1 + b];
          hist.count += hist.buckets[b];
        }
        snapshot.histograms[info.name] = std::move(hist);
        break;
      }
    }
  }
#endif
  return snapshot;
}

uint64_t HistogramSnapshot::BucketUpperBound(size_t i) {
  if (i >= 64) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

uint64_t HistogramSnapshot::PercentileUpperBound(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(buckets.empty() ? 0 : buckets.size() - 1);
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    out << "gauge " << name << ' ' << value << '\n';
  }
  for (const auto& [name, hist] : histograms) {
    out << "histogram " << name << " count=" << hist.count
        << " sum=" << hist.sum << " mean=" << hist.Mean()
        << " p50<=" << hist.PercentileUpperBound(0.5)
        << " p99<=" << hist.PercentileUpperBound(0.99) << '\n';
  }
  return out.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  auto emit_map = [&out](const auto& map, auto emit_value) {
    bool first = true;
    for (const auto& [name, value] : map) {
      if (!first) out << ',';
      first = false;
      out << '"' << name << "\":";
      emit_value(value);
    }
  };
  out << "{\"counters\":{";
  emit_map(counters, [&out](uint64_t v) { out << v; });
  out << "},\"gauges\":{";
  emit_map(gauges, [&out](int64_t v) { out << v; });
  out << "},\"histograms\":{";
  emit_map(histograms, [&out](const HistogramSnapshot& hist) {
    out << "{\"count\":" << hist.count << ",\"sum\":" << hist.sum
        << ",\"buckets\":[";
    bool first = true;
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;
      if (!first) out << ',';
      first = false;
      out << '[' << HistogramSnapshot::BucketUpperBound(i) << ','
          << hist.buckets[i] << ']';
    }
    out << "]}";
  });
  out << "}}";
  return out.str();
}

}  // namespace epfis
