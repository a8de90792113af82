#ifndef EPFIS_HARNESS_EXPERIMENT_H_
#define EPFIS_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/estimator.h"
#include "epfis/epfis.h"
#include "exec/predicate.h"
#include "workload/dataset.h"
#include "workload/scan_gen.h"

namespace epfis {

/// Configuration of one §5-style error experiment.
struct ExperimentConfig {
  /// Number of random scans (paper: 200).
  int num_scans = 200;
  /// kMixed draws a small or a large scan with probability 0.5 each, as
  /// the paper does.
  ScanMix mix = ScanMix::kMixed;

  /// Floor of every swept buffer size (paper: 300). The sweep itself is
  /// the paper's, PaperBufferFractions() of T, each size capped at T.
  uint64_t min_buffer_pages = 300;

  /// Optional sargable-predicate selectivity applied to every scan
  /// (1 = none; the §5 experiments use none).
  double sargable_selectivity = 1.0;

  LruFitOptions lru_fit;
  EstIoOptions est_io;
  uint64_t seed = 7;
};

/// Per-algorithm errors per buffer size, in percent.
///
/// `error_pct` is the paper's metric: 100 * (Σe_i − Σa_i) / Σa_i — the
/// relative error of the *aggregate*, which weights scans by their actual
/// cost. `mean_rel_error_pct` is the alternative the paper explicitly
/// rejects ("for small scans, the relative error values can be large, but
/// the absolute error values are usually small"): the mean over scans of
/// 100 * |e_i − a_i| / a_i. Both are computed so the §5 methodological
/// argument can be checked empirically (bench_ablation_metric).
struct AlgorithmErrors {
  std::string name;
  std::vector<double> error_pct;           ///< One per buffer size.
  std::vector<double> mean_rel_error_pct;  ///< One per buffer size.
};

/// Result of RunErrorExperiment.
struct ExperimentResult {
  std::vector<uint64_t> buffer_sizes;
  std::vector<double> buffer_pct;  ///< 100 * B / T.
  std::vector<AlgorithmErrors> algorithms;
  IndexStats stats;                ///< What LRU-Fit computed.
  BaselineTraceStats trace_stats;  ///< What the baselines computed.
  uint64_t total_actual_fetches = 0;  ///< Sum of a_i over scans (at B_1).
};

/// Runs the paper's §5 protocol on one dataset: collect statistics once
/// (LRU-Fit + baseline counters), draw `num_scans` random scans, obtain
/// ground-truth fetch counts a_i(B) for every swept buffer size from one
/// StackDistanceKernel pass over each scan's reference string (a
/// SliceScanTrace of the index entries), and aggregate the error metric
/// per algorithm per buffer size.
Result<ExperimentResult> RunErrorExperiment(const Dataset& dataset,
                                            const ExperimentConfig& config);

/// The paper's buffer sweep as fractions of T: 5% to 90% in steps of 5%,
/// accumulated step by step.
std::vector<double> PaperBufferFractions();

/// Buffer sizes for a table of `table_pages` pages: each of `fractions`
/// of T, floored at `min_buffer_pages`, clamped to [1, T], deduplicated
/// and ascending.
std::vector<uint64_t> SweepBufferSizes(uint64_t table_pages,
                                       const std::vector<double>& fractions,
                                       uint64_t min_buffer_pages);

/// The data-page reference string of the index scan over keys [lo, hi]
/// with `filter`'s rejects dropped, sliced from `entries`, the dataset's
/// IndexEntries(). Keys are dense, so the scan reads the
/// RecordsInRange(lo, hi) entries that start at entry
/// RecordsInRange(1, lo − 1); the result equals CollectScanTrace over the
/// dataset's index for the same range and filter, without walking the
/// tree again. InvalidArgument if `entries` is shorter than the key counts
/// say.
Result<std::vector<PageId>> SliceScanTrace(
    const Dataset& dataset, const std::vector<IndexEntry>& entries,
    int64_t lo, int64_t hi, const SargableFilter* filter = nullptr);

}  // namespace epfis

#endif  // EPFIS_HARNESS_EXPERIMENT_H_
