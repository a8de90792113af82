#include "buffer/parallel_stack_distance.h"

#include <cmath>
#include <utility>
#include <vector>

#include "buffer/stack_distance_kernel.h"
#include "obs/metrics.h"
#include "util/cancel.h"

namespace epfis {
namespace {

// Folds a finished kernel's run counters into the global registry. The
// kernel itself keeps plain members in its hot loop; publishing once per
// run keeps the instrumentation off the per-reference path.
void PublishKernelMetrics(const StackDistanceKernel& kernel) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter refs = registry.GetCounter("kernel.refs");
  static Counter compactions = registry.GetCounter("kernel.compactions");
  static Counter resizes = registry.GetCounter("kernel.window_resizes");
  static Counter lookups = registry.GetCounter("kernel.hash_lookups");
  static Counter probes = registry.GetCounter("kernel.hash_probes");
  static Counter grows = registry.GetCounter("kernel.hash_grows");
  refs.Increment(kernel.accesses());
  compactions.Increment(kernel.compactions());
  resizes.Increment(kernel.window_resizes());
  auto hash = kernel.hash_stats();
  lookups.Increment(hash.lookups);
  probes.Increment(hash.probes);
  grows.Increment(hash.grows);
}

// Publishes what a sampled pass did: volumes on both sides of the filter
// and the rescale factor 1/R (a gauge, since it is a property of the last
// run, not an accumulating event count).
void PublishSamplingMetrics(const SamplingSummary& summary) {
  if (!summary.active()) return;
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter total = registry.GetCounter("sampling.total_refs");
  static Counter sampled = registry.GetCounter("sampling.sampled_refs");
  static Gauge rescale =
      registry.GetGauge("sampling.rescale_factor_x1000");
  total.Increment(summary.total_refs);
  sampled.Increment(summary.sampled_refs);
  rescale.Set(static_cast<int64_t>(
      std::llround(1000.0 / summary.effective_rate)));
}

// Chunk size (in references) of the streaming read buffer.
constexpr size_t kTraceChunkRefs = size_t{1} << 16;

}  // namespace

Result<StackDistanceHistogram> ComputeStackDistances(
    TraceSource& trace, const StackDistanceOptions& options) {
  if (options.sampling.enabled()) {
    return Status::InvalidArgument(
        "stack distance: sampling requested on the exact entry point; "
        "call ComputeSampledStackDistances");
  }
  EPFIS_ASSIGN_OR_RETURN(SampledStackDistances result,
                         ComputeSampledStackDistances(trace, nullptr,
                                                      options));
  return std::move(result.histogram);
}

Result<SampledStackDistances> ComputeSampledStackDistances(
    TraceSource& trace, ThreadPool* pool,
    const StackDistanceOptions& options) {
  if (pool != nullptr) {
    return Status::InvalidArgument(
        "stack distance: the pass is serial; pass a null pool");
  }
  const SamplingOptions& sampling = options.sampling;
  EPFIS_RETURN_IF_ERROR(sampling.Validate());
  size_t expected = static_cast<size_t>(trace.size_hint().value_or(1024));
  StackDistanceKernel kernel(expected == 0 ? 1 : expected,
                             /*window_hint=*/0, sampling);
  std::vector<PageId> buffer(kTraceChunkRefs);
  for (;;) {
    EPFIS_RETURN_IF_ERROR(
        CheckCancel(options.cancel, options.deadline, "stack distance"));
    EPFIS_ASSIGN_OR_RETURN(size_t n, trace.Next(buffer.data(), buffer.size()));
    if (n == 0) break;
    EPFIS_RETURN_IF_ERROR(ValidatePageRefs(buffer.data(), n));
    kernel.AccessAll(buffer.data(), n);
  }
  SamplingSummary summary = kernel.sampling_summary();
  if (summary.total_refs == 0) {
    return Status::InvalidArgument("stack distance: empty trace");
  }
  if (summary.sampled_refs == 0) {
    return Status::FailedPrecondition(
        "stack distance: sampling rate too low, no references sampled");
  }
  static Counter serial_runs =
      MetricsRegistry::Global().GetCounter("sd.serial_runs");
  serial_runs.Increment();
  PublishKernelMetrics(kernel);
  PublishSamplingMetrics(summary);
  return kernel.sampled_result();
}

}  // namespace epfis
