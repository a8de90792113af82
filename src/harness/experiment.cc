#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "baselines/dc.h"
#include "baselines/ml.h"
#include "baselines/ot.h"
#include "baselines/sd.h"
#include "buffer/stack_distance_kernel.h"

namespace epfis {

std::vector<double> PaperBufferFractions() {
  std::vector<double> fractions;
  for (double frac = 0.05; frac <= 0.90 + 1e-9; frac += 0.05) {
    fractions.push_back(frac);
  }
  return fractions;
}

std::vector<uint64_t> SweepBufferSizes(uint64_t table_pages,
                                       const std::vector<double>& fractions,
                                       uint64_t min_buffer_pages) {
  std::vector<uint64_t> sizes;
  for (double fraction : fractions) {
    double want = fraction * static_cast<double>(table_pages);
    uint64_t b = std::max<uint64_t>(
        min_buffer_pages,
        static_cast<uint64_t>(std::llround(std::max(want, 1.0))));
    sizes.push_back(std::min(b, table_pages));
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

Result<std::vector<PageId>> SliceScanTrace(
    const Dataset& dataset, const std::vector<IndexEntry>& entries,
    int64_t lo, int64_t hi, const SargableFilter* filter) {
  const uint64_t first =
      dataset.RecordsInRange(1, std::max<int64_t>(lo, 1) - 1);
  const uint64_t count = dataset.RecordsInRange(lo, hi);
  if (first + count > entries.size()) {
    return Status::InvalidArgument(
        "scan slice: fewer index entries than the key counts");
  }
  std::vector<PageId> trace;
  trace.reserve(count);
  for (uint64_t i = first; i < first + count; ++i) {
    if (filter == nullptr || filter->Keep(entries[i])) {
      trace.push_back(entries[i].rid.page_id);
    }
  }
  return trace;
}

Result<ExperimentResult> RunErrorExperiment(const Dataset& dataset,
                                            const ExperimentConfig& config) {
  if (config.num_scans <= 0) {
    return Status::InvalidArgument("experiment needs at least one scan");
  }
  const uint64_t t = dataset.num_pages();
  ExperimentResult result;
  result.buffer_sizes =
      SweepBufferSizes(t, PaperBufferFractions(), config.min_buffer_pages);
  result.buffer_pct.reserve(result.buffer_sizes.size());
  for (uint64_t b : result.buffer_sizes) {
    result.buffer_pct.push_back(100.0 * static_cast<double>(b) /
                                static_cast<double>(t));
  }
  const size_t num_buffers = result.buffer_sizes.size();

  // --- Statistics collection (once per dataset, as in the paper) ---
  EPFIS_ASSIGN_OR_RETURN(std::vector<IndexEntry> entries,
                         dataset.IndexEntries());
  std::vector<PageId> page_trace;
  page_trace.reserve(entries.size());
  for (const IndexEntry& entry : entries) {
    page_trace.push_back(entry.rid.page_id);
  }

  EPFIS_ASSIGN_OR_RETURN(
      result.stats,
      RunLruFit(page_trace, t, dataset.num_distinct(), dataset.name(),
                config.lru_fit));
  EPFIS_ASSIGN_OR_RETURN(result.trace_stats,
                         CollectBaselineTraceStats(entries, t));

  // --- Estimators under comparison ---
  std::vector<std::unique_ptr<Estimator>> baselines;
  baselines.push_back(std::make_unique<MlEstimator>(
      t, dataset.num_records(), dataset.num_distinct()));
  baselines.push_back(std::make_unique<DcEstimator>(result.trace_stats));
  baselines.push_back(std::make_unique<SdEstimator>(result.trace_stats));
  baselines.push_back(std::make_unique<OtEstimator>(result.trace_stats));

  const size_t num_algos = 1 + baselines.size();  // EPFIS + baselines.
  std::vector<std::vector<double>> sum_est(
      num_algos, std::vector<double>(num_buffers, 0.0));
  std::vector<std::vector<double>> sum_rel_err(
      num_algos, std::vector<double>(num_buffers, 0.0));
  std::vector<double> sum_actual(num_buffers, 0.0);

  const bool has_sargable = config.sargable_selectivity < 1.0;
  std::optional<SargableFilter> filter;
  if (has_sargable) {
    filter.emplace(config.sargable_selectivity, config.seed ^ 0x5a5a5a5aULL);
  }

  // --- The 200 random scans ---
  ScanGenerator generator(&dataset, config.seed);
  for (int scan_idx = 0; scan_idx < config.num_scans; ++scan_idx) {
    ScanRange scan = generator.Next(config.mix);

    // Ground truth: the scan's reference string, sliced from the entries,
    // and fetch counts for all buffer sizes from one kernel pass
    // (identical to running one LRU pool per size — asserted by
    // integration tests).
    EPFIS_ASSIGN_OR_RETURN(
        std::vector<PageId> trace,
        SliceScanTrace(dataset, entries, scan.lo_key, scan.hi_key,
                       filter.has_value() ? &*filter : nullptr));
    StackDistanceKernel kernel(trace.size());
    kernel.AccessAll(trace);
    std::vector<double> actual(num_buffers);
    for (size_t j = 0; j < num_buffers; ++j) {
      actual[j] =
          static_cast<double>(kernel.Fetches(result.buffer_sizes[j]));
      sum_actual[j] += actual[j];
    }

    // Estimates (both the aggregate numerators and per-scan relative
    // errors for the alternative metric the paper rejects).
    for (size_t j = 0; j < num_buffers; ++j) {
      ScanSpec spec;
      spec.sigma = scan.sigma;
      spec.sargable_selectivity = config.sargable_selectivity;
      spec.buffer_pages = result.buffer_sizes[j];
      EPFIS_ASSIGN_OR_RETURN(
          double epfis_est,
          EstIo::Estimate(result.stats, spec, config.est_io));
      sum_est[0][j] += epfis_est;
      double denom = std::max(actual[j], 1.0);
      sum_rel_err[0][j] += std::fabs(epfis_est - actual[j]) / denom;

      EstimatorQuery query{scan.sigma, result.buffer_sizes[j]};
      for (size_t a = 0; a < baselines.size(); ++a) {
        double est = baselines[a]->Estimate(query);
        // The classic estimators do not model sargable predicates; scale
        // linearly by S (the natural strawman) when one is present.
        if (has_sargable) est *= config.sargable_selectivity;
        sum_est[a + 1][j] += est;
        sum_rel_err[a + 1][j] += std::fabs(est - actual[j]) / denom;
      }
    }
  }

  result.total_actual_fetches = static_cast<uint64_t>(sum_actual[0]);

  // --- Error metric per algorithm ---
  auto make_errors = [&](const std::string& name,
                         const std::vector<double>& est,
                         const std::vector<double>& rel) {
    AlgorithmErrors errors;
    errors.name = name;
    errors.error_pct.reserve(num_buffers);
    errors.mean_rel_error_pct.reserve(num_buffers);
    for (size_t j = 0; j < num_buffers; ++j) {
      double denom = std::max(sum_actual[j], 1.0);
      errors.error_pct.push_back(100.0 * (est[j] - sum_actual[j]) / denom);
      errors.mean_rel_error_pct.push_back(
          100.0 * rel[j] / static_cast<double>(config.num_scans));
    }
    return errors;
  };
  result.algorithms.push_back(
      make_errors("EPFIS", sum_est[0], sum_rel_err[0]));
  for (size_t a = 0; a < baselines.size(); ++a) {
    result.algorithms.push_back(make_errors(baselines[a]->name(),
                                            sum_est[a + 1],
                                            sum_rel_err[a + 1]));
  }
  return result;
}

}  // namespace epfis
