#ifndef EPFIS_HARNESS_ACCURACY_H_
#define EPFIS_HARNESS_ACCURACY_H_

#include <cstdint>
#include <vector>

#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "obs/accuracy.h"
#include "util/result.h"

namespace epfis {

/// Configuration for the estimator-accuracy replay harness. The defaults
/// are a scaled-down version of the paper's §5.2 synthetic protocol: a
/// Zipf(0.86) key distribution over several placement windows K (K
/// controls the clustering factor C), random index-range scans with a
/// small/large selectivity mix, and a sweep of buffer sizes per scan.
struct AccuracyHarnessConfig {
  uint64_t num_records = 200'000;   ///< N per dataset.
  uint64_t num_distinct = 2'000;    ///< I.
  uint32_t records_per_page = 40;   ///< R.
  double theta = 0.86;              ///< Zipf skew of duplicate counts.
  double noise = 0.05;              ///< Placement noise (paper: 5%).

  /// Placement windows to generate one dataset each for; K=0 is perfectly
  /// clustered, K=1 is uniform random placement.
  std::vector<double> window_fractions = {0.0, 0.1, 0.5, 1.0};

  /// Random range scans evaluated per dataset (alternating small and
  /// large selectivities).
  int scans_per_dataset = 100;

  /// Buffer sizes evaluated per scan, as fractions of T (each is floored
  /// at `min_buffer_pages` and deduplicated).
  std::vector<double> buffer_fractions = {0.05, 0.1, 0.25, 0.5, 1.0};
  uint64_t min_buffer_pages = 12;

  uint64_t seed = 42;

  LruFitOptions lru_fit;   ///< Statistics-collection options.
  EstIoOptions est_io;     ///< Estimator options under test.
};

/// Per-dataset summary in the harness report.
struct AccuracyDatasetReport {
  double window_fraction = 0.0;
  uint64_t table_pages = 0;
  uint64_t records = 0;
  double clustering = 0.0;  ///< C measured by LRU-Fit.
};

struct AccuracyHarnessReport {
  std::vector<AccuracyDatasetReport> datasets;
  uint64_t scans_evaluated = 0;
  uint64_t estimates_evaluated = 0;
};

/// Replays the configured workload and records every (estimate, ground
/// truth) comparison into `tracker`: for each dataset, LRU-Fit builds the
/// catalog entry once, then each random range scan's reference string (a
/// contiguous slice of the key-ordered full-scan trace) is pushed through
/// one Mattson stack pass — giving the exact LRU fetch count for every
/// buffer size at once — and compared against EstIo::Estimate at each
/// configured buffer size. Progress counters and stage timings land in
/// MetricsRegistry::Global() under the "accuracy." prefix.
Result<AccuracyHarnessReport> RunAccuracyHarness(
    const AccuracyHarnessConfig& config, AccuracyTracker* tracker);

}  // namespace epfis

#endif  // EPFIS_HARNESS_ACCURACY_H_
