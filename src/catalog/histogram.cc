#include "catalog/histogram.h"

#include <algorithm>

namespace epfis {

Result<EquiDepthHistogram> EquiDepthHistogram::Build(
    const std::vector<uint64_t>& key_counts, int num_buckets) {
  if (num_buckets < 1) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }
  uint64_t total = 0;
  for (uint64_t c : key_counts) total += c;
  if (total == 0) {
    return Status::InvalidArgument("histogram needs at least one record");
  }

  // Target depth; a bucket closes once it reaches it (a single heavy key
  // may overflow its bucket — equi-depth is approximate by nature).
  uint64_t depth = (total + num_buckets - 1) / num_buckets;
  std::vector<Bucket> buckets;
  Bucket current;
  bool open = false;
  for (size_t i = 0; i < key_counts.size(); ++i) {
    if (key_counts[i] == 0) continue;
    int64_t key = static_cast<int64_t>(i) + 1;
    if (!open) {
      current = Bucket{key, key, 0, 0};
      open = true;
    }
    current.hi = key;
    current.count += key_counts[i];
    current.distinct += 1;
    if (current.count >= depth &&
        buckets.size() + 1 < static_cast<size_t>(num_buckets)) {
      buckets.push_back(current);
      open = false;
    }
  }
  if (open) buckets.push_back(current);
  return EquiDepthHistogram(std::move(buckets), total);
}

double EquiDepthHistogram::EstimateRecords(const KeyRange& range) const {
  int64_t lo = range.EffectiveLo();
  int64_t hi = range.EffectiveHi();
  if (lo > hi) return 0.0;
  double records = 0.0;
  for (const Bucket& bucket : buckets_) {
    if (bucket.hi < lo || bucket.lo > hi) continue;
    int64_t cover_lo = std::max(lo, bucket.lo);
    int64_t cover_hi = std::min(hi, bucket.hi);
    double width = static_cast<double>(bucket.hi - bucket.lo) + 1.0;
    double covered = static_cast<double>(cover_hi - cover_lo) + 1.0;
    records += static_cast<double>(bucket.count) * (covered / width);
  }
  return records;
}

double EquiDepthHistogram::EstimateSelectivity(const KeyRange& range) const {
  return EstimateRecords(range) / static_cast<double>(total_records_);
}

}  // namespace epfis
