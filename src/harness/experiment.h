#ifndef EPFIS_HARNESS_EXPERIMENT_H_
#define EPFIS_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/estimator.h"
#include "epfis/epfis.h"
#include "workload/dataset.h"
#include "workload/scan_gen.h"

namespace epfis {

/// Configuration of one §5-style error experiment.
struct ExperimentConfig {
  /// Number of random scans (paper: 200).
  int num_scans = 200;
  ScanMix mix = ScanMix::kMixed;
  double p_small = 0.5;

  /// Buffer sweep: fractions of T in [start, end] stepped by `step`
  /// (paper: 5%..90% step 5%), with each size floored at
  /// `min_buffer_pages` (paper: 300) and capped at T.
  double buffer_frac_start = 0.05;
  double buffer_frac_step = 0.05;
  double buffer_frac_end = 0.90;
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
/// ground-truth fetch counts a_i(B) for every swept buffer size via the
/// stack simulator over each scan's reference string, and aggregate the
/// error metric per algorithm per buffer size.
Result<ExperimentResult> RunErrorExperiment(const Dataset& dataset,
                                            const ExperimentConfig& config);

/// The swept buffer sizes for a table of `table_pages` pages under
/// `config` (deduplicated, ascending).
std::vector<uint64_t> SweepBufferSizes(uint64_t table_pages,
                                       const ExperimentConfig& config);

}  // namespace epfis

#endif  // EPFIS_HARNESS_EXPERIMENT_H_
