#include "harness/accuracy.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "buffer/lru_simulator.h"
#include "buffer/stack_distance_kernel.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

// For the first kLruCheckScans scans of each dataset, the stack ground
// truth is cross-checked against a direct LruSimulator run at the smallest
// buffer size; a mismatch fails the harness (it would mean the ground
// truth itself is broken).
constexpr int kLruCheckScans = 2;

// The paper evaluates small and large scans separately; alternate between
// the two mixes so every (sigma, B) bucket gets samples.
double DrawSigma(Rng& rng, int scan_index) {
  double u = rng.NextDouble();
  return scan_index % 2 == 0 ? 0.002 + u * 0.098 : 0.1 + u * 0.9;
}

}  // namespace

Result<AccuracyHarnessReport> RunAccuracyHarness(
    const AccuracyHarnessConfig& config, AccuracyTracker* tracker) {
  if (tracker == nullptr) {
    return Status::InvalidArgument("accuracy harness: tracker is null");
  }
  if (config.num_records == 0 || config.window_fractions.empty() ||
      config.buffer_fractions.empty() || config.scans_per_dataset < 1) {
    return Status::InvalidArgument(
        "accuracy harness: need records, windows, buffers, and scans");
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter scans_counter = registry.GetCounter("accuracy.scans");
  static Counter estimates_counter =
      registry.GetCounter("accuracy.estimates");
  static Counter datasets_counter = registry.GetCounter("accuracy.datasets");
  static LatencyHistogram lru_fit_ns =
      registry.GetHistogram("accuracy.lru_fit_ns");
  static LatencyHistogram replay_ns =
      registry.GetHistogram("accuracy.replay_ns");

  AccuracyHarnessReport report;
  for (size_t d = 0; d < config.window_fractions.size(); ++d) {
    SyntheticSpec spec;
    spec.name = "accuracy_k" + std::to_string(d);
    spec.num_records = config.num_records;
    spec.num_distinct = config.num_distinct;
    spec.records_per_page = config.records_per_page;
    spec.theta = config.theta;
    spec.window_fraction = config.window_fractions[d];
    spec.noise = config.noise;
    spec.seed = config.seed + d;
    EPFIS_ASSIGN_OR_RETURN(Placement placement, GeneratePlacement(spec));
    std::vector<PageId> trace = PlacementTrace(placement);
    const uint64_t table_pages = placement.num_pages;
    const uint64_t n = trace.size();
    if (n == 0 || table_pages == 0) {
      return Status::Internal("accuracy harness: empty placement");
    }

    IndexStats stats;
    {
      ScopedTimer timer(lru_fit_ns);
      EPFIS_ASSIGN_OR_RETURN(
          stats, RunLruFit(trace, table_pages, config.num_distinct, spec.name,
                           config.lru_fit));
    }
    datasets_counter.Increment();
    report.datasets.push_back(AccuracyDatasetReport{
        spec.window_fraction, table_pages, n, stats.clustering});

    std::vector<uint64_t> buffers = SweepBufferSizes(
        table_pages, config.buffer_fractions, config.min_buffer_pages);
    Rng rng(config.seed * 7919 + d);
    for (int scan = 0; scan < config.scans_per_dataset; ++scan) {
      double sigma_target = DrawSigma(rng, scan);
      uint64_t len = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::llround(sigma_target * static_cast<double>(n))));
      len = std::min(len, n);
      uint64_t start = rng.NextBounded(n - len + 1);
      // The full-scan trace is in key order, so a range scan's reference
      // string is exactly a contiguous slice of it.
      const PageId* slice = trace.data() + start;
      double sigma = static_cast<double>(len) / static_cast<double>(n);

      StackDistanceKernel kernel(static_cast<size_t>(len));
      {
        ScopedTimer timer(replay_ns);
        kernel.AccessAll(slice, static_cast<size_t>(len));
      }
      if (scan < kLruCheckScans) {
        std::vector<PageId> slice_copy(slice, slice + len);
        uint64_t direct = CountLruFetches(
            slice_copy, static_cast<size_t>(buffers.front()));
        if (direct != kernel.Fetches(buffers.front())) {
          return Status::Internal(
              "accuracy harness: stack ground truth disagrees with "
              "LruSimulator");
        }
      }

      for (uint64_t b : buffers) {
        ScanSpec scan_spec;
        scan_spec.sigma = sigma;
        scan_spec.sargable_selectivity = 1.0;
        scan_spec.buffer_pages = b;
        EPFIS_ASSIGN_OR_RETURN(
            double estimate, EstIo::Estimate(stats, scan_spec, config.est_io));
        double actual = static_cast<double>(kernel.Fetches(b));
        tracker->Record(sigma,
                        static_cast<double>(b) /
                            static_cast<double>(table_pages),
                        stats.clustering, estimate, actual);
        estimates_counter.Increment();
        ++report.estimates_evaluated;
      }
      scans_counter.Increment();
      ++report.scans_evaluated;
    }
  }
  return report;
}

}  // namespace epfis
