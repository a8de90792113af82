#ifndef EPFIS_CATALOG_HISTOGRAM_H_
#define EPFIS_CATALOG_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "exec/predicate.h"
#include "util/result.h"

namespace epfis {

/// Equi-depth histogram over an integer key column.
///
/// The paper treats selectivity estimation as a solved input ("Methods for
/// estimating the selectivity are well known (Mannino et al., 1988)");
/// this is that substrate, so the optimizer can run end-to-end without
/// being handed sigma: buckets of (approximately) equal record counts,
/// with uniform interpolation inside a bucket.
class EquiDepthHistogram {
 public:
  struct Bucket {
    int64_t lo = 0;          ///< Smallest key in the bucket (inclusive).
    int64_t hi = 0;          ///< Largest key in the bucket (inclusive).
    uint64_t count = 0;      ///< Records in the bucket.
    uint64_t distinct = 0;   ///< Distinct keys in the bucket.
  };

  /// Builds from per-key record counts in key order (`key_counts[i]` =
  /// records with key i+1 — the Dataset representation). Requires
  /// num_buckets >= 1 and at least one record.
  static Result<EquiDepthHistogram> Build(
      const std::vector<uint64_t>& key_counts, int num_buckets);

  const std::vector<Bucket>& buckets() const { return buckets_; }
  uint64_t total_records() const { return total_records_; }

  /// Estimated number of records with key in `range` (uniform
  /// interpolation within partially-covered buckets).
  double EstimateRecords(const KeyRange& range) const;

  /// EstimateRecords / total, in [0, 1] — the optimizer's sigma.
  double EstimateSelectivity(const KeyRange& range) const;

 private:
  EquiDepthHistogram(std::vector<Bucket> buckets, uint64_t total)
      : buckets_(std::move(buckets)), total_records_(total) {}

  std::vector<Bucket> buckets_;
  uint64_t total_records_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_CATALOG_HISTOGRAM_H_
