#include "epfis/lru_fit.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "buffer/parallel_stack_distance.h"
#include "catalog/stats_catalog.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/formulas.h"
#include "util/thread_pool.h"

namespace epfis {
namespace {

struct ModelRange {
  uint64_t b_min;
  uint64_t b_max;
};

Result<ModelRange> DetermineRange(uint64_t table_pages,
                                  const LruFitOptions& options) {
  uint64_t b_max = options.b_max_override.value_or(table_pages);
  uint64_t b_min = options.b_min_override.value_or(
      std::max<uint64_t>(static_cast<uint64_t>(std::ceil(
                             0.01 * static_cast<double>(table_pages))),
                         options.b_sml));
  b_min = std::max<uint64_t>(b_min, 1);
  if (b_min > b_max) b_min = b_max;
  if (b_max == 0) {
    return Status::InvalidArgument("LRU-Fit: empty modeling range");
  }
  return ModelRange{b_min, b_max};
}

Result<SampledStackDistances> SimulateTrace(TraceSource& trace,
                                            uint64_t table_pages,
                                            const LruFitOptions& options) {
  StackDistanceOptions sd_options;
  sd_options.sampling.rate = SampleRateForPages(
      options.sample_rate, options.sample_max_pages, table_pages);
  sd_options.cancel = options.cancel;
  sd_options.deadline = options.deadline;
  auto result = ComputeSampledStackDistances(trace, nullptr, sd_options);
  if (!result.ok() &&
      result.status().code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument("LRU-Fit: " + result.status().message());
  }
  return result;
}

}  // namespace

Status LruFitOptions::Validate() const {
  if (num_segments < 1) {
    return Status::InvalidArgument("LRU-Fit: need at least one segment");
  }
  if (b_sml == 0) {
    return Status::InvalidArgument("LRU-Fit: b_sml must be >= 1");
  }
  if (b_min_override.has_value() && b_max_override.has_value() &&
      *b_min_override > *b_max_override) {
    return Status::InvalidArgument(
        "LRU-Fit: b_min_override exceeds b_max_override");
  }
  if (!(sample_rate > 0.0) || sample_rate > 1.0) {
    return Status::InvalidArgument(
        "LRU-Fit: sample_rate must be in (0, 1]");
  }
  return Status::Ok();
}

double SampleRateForPages(double sample_rate, uint64_t max_pages,
                          uint64_t table_pages) {
  if (max_pages == 0 || max_pages >= table_pages) return sample_rate;
  return std::min(sample_rate, static_cast<double>(max_pages) /
                                   static_cast<double>(table_pages));
}

Result<std::vector<FpfPoint>> SampleFpfCurve(TraceSource& trace,
                                             uint64_t b_min, uint64_t b_max,
                                             BufferSchedule schedule) {
  EPFIS_ASSIGN_OR_RETURN(std::vector<uint64_t> sizes,
                         MakeBufferSchedule(b_min, b_max, schedule));
  auto histogram_or = ComputeStackDistances(trace);
  if (!histogram_or.ok()) {
    if (histogram_or.status().code() == StatusCode::kInvalidArgument) {
      return Status::InvalidArgument("SampleFpfCurve: " +
                                     histogram_or.status().message());
    }
    return histogram_or.status();
  }
  const StackDistanceHistogram& histogram = *histogram_or;
  std::vector<FpfPoint> points;
  points.reserve(sizes.size());
  for (uint64_t b : sizes) {
    points.push_back(FpfPoint{b, histogram.Fetches(b)});
  }
  return points;
}

Result<std::vector<FpfPoint>> SampleFpfCurve(const std::vector<PageId>& trace,
                                             uint64_t b_min, uint64_t b_max,
                                             BufferSchedule schedule) {
  VectorTraceSource source = VectorTraceSource::View(trace);
  return SampleFpfCurve(source, b_min, b_max, schedule);
}

Result<IndexStats> RunLruFit(TraceSource& trace, uint64_t table_pages,
                             uint64_t distinct_keys, std::string index_name,
                             const LruFitOptions& options) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter runs_counter = registry.GetCounter("lru_fit.runs");
  static Counter refs_counter = registry.GetCounter("lru_fit.refs");
  static LatencyHistogram simulate_ns =
      registry.GetHistogram("lru_fit.simulate_ns");
  static LatencyHistogram fit_ns = registry.GetHistogram("lru_fit.fit_ns");

  EPFIS_RETURN_IF_ERROR(options.Validate());
  EPFIS_RETURN_IF_ERROR(CheckCancel(options.cancel, options.deadline,
                                    "LRU-Fit"));
  EPFIS_ASSIGN_OR_RETURN(ModelRange range,
                         DetermineRange(table_pages, options));

  // One pass over the trace: the stack simulation gives F for *every*
  // buffer size; we read it out at the scheduled sizes. Under sampling
  // the pass covers only the hash-sampled page subset and the accessors
  // below rescale to full-trace estimates; the reference count N stays
  // exact (the filter counts what it drops).
  EPFIS_ASSIGN_OR_RETURN(std::vector<uint64_t> sizes,
                         MakeBufferSchedule(range.b_min, range.b_max,
                                            options.schedule));
  SampledStackDistances histogram;
  {
    ScopedTimer timer(simulate_ns);
    EPFIS_ASSIGN_OR_RETURN(histogram,
                           SimulateTrace(trace, table_pages, options));
  }
  runs_counter.Increment();
  refs_counter.Increment(histogram.accesses());
  ScopedTimer fit_timer(fit_ns);

  IndexStats stats;
  stats.index_name = std::move(index_name);
  stats.table_pages = table_pages;
  stats.table_records = histogram.accesses();
  stats.distinct_keys = distinct_keys;
  stats.pages_accessed = histogram.distinct_pages();
  if (histogram.sampling.active()) {
    // The rescaled distinct-page estimate can overshoot the physical
    // bound A <= T; clamp so downstream [A, N] clamps stay physical.
    stats.pages_accessed = std::min(stats.pages_accessed, table_pages);
  }
  stats.b_min = range.b_min;
  stats.b_max = range.b_max;
  stats.f_min = histogram.Fetches(range.b_min);
  stats.sample_rate = histogram.sampling.effective_rate;
  stats.sampled_refs = histogram.sampling.sampled_refs;

  // C = (N - F_min) / (N - T); degenerate N <= T means no page can be
  // refetched even with one buffer, i.e. perfectly clustered.
  double n = static_cast<double>(stats.table_records);
  double t = static_cast<double>(stats.table_pages);
  if (n > t) {
    stats.clustering =
        Clamp((n - static_cast<double>(stats.f_min)) / (n - t), 0.0, 1.0);
  } else {
    stats.clustering = 1.0;
  }

  std::vector<Knot> points;
  points.reserve(sizes.size());
  for (uint64_t b : sizes) {
    points.push_back(Knot{static_cast<double>(b),
                          static_cast<double>(histogram.Fetches(b))});
  }
  if (points.size() == 1) {
    // Single modeled size (tiny table): store a flat segment.
    points.push_back(Knot{points[0].x + 1.0, points[0].y});
  }
  EPFIS_ASSIGN_OR_RETURN(
      PiecewiseLinear fit,
      options.fit_criterion == LruFitOptions::FitCriterion::kMinimax
          ? FitPiecewiseLinearMinimax(points, options.num_segments)
          : FitPiecewiseLinear(points, options.num_segments));
  stats.fpf = std::move(fit);
  return stats;
}

Result<IndexStats> RunLruFit(const std::vector<PageId>& trace,
                             uint64_t table_pages, uint64_t distinct_keys,
                             std::string index_name,
                             const LruFitOptions& options) {
  VectorTraceSource source = VectorTraceSource::View(trace);
  return RunLruFit(source, table_pages, distinct_keys,
                   std::move(index_name), options);
}

LruFitBatchResult RunLruFitBatch(std::vector<LruFitJob> jobs,
                                 ThreadPool& pool, StatsCatalog* catalog) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter batch_runs = registry.GetCounter("lru_fit.batch_runs");
  static Counter jobs_ok = registry.GetCounter("lru_fit.batch_jobs_ok");
  static Counter jobs_failed =
      registry.GetCounter("lru_fit.batch_jobs_failed");
  static LatencyHistogram batch_ns =
      registry.GetHistogram("lru_fit.batch_ns");
  batch_runs.Increment();
  ScopedTimer timer(batch_ns);

  LruFitBatchResult batch;
  batch.statuses.resize(jobs.size());
  std::vector<std::future<Status>> futures;
  futures.reserve(jobs.size());
  for (LruFitJob& job : jobs) {
    futures.push_back(pool.Submit([&job, catalog]() -> Status {
      // Failure isolation: whatever happens inside one job — an injected
      // fault, a bad trace, even an exception from a misbehaving
      // TraceSource — becomes that job's Status. Nothing may escape the
      // lambda, or future::get() would rethrow and abort the whole batch
      // drain.
      try {
        EPFIS_RETURN_IF_ERROR(FaultPoint("lru_fit.batch.job"));
        if (job.trace == nullptr) {
          return Status::InvalidArgument("LRU-Fit batch: job has no trace");
        }
        auto stats = RunLruFit(*job.trace, job.table_pages, job.distinct_keys,
                               job.index_name, job.options);
        if (!stats.ok()) return stats.status();
        if (catalog != nullptr) catalog->Put(std::move(stats).value());
        return Status::Ok();
      } catch (const std::exception& e) {
        return Status::Internal(std::string("LRU-Fit batch: job threw: ") +
                                e.what());
      } catch (...) {
        return Status::Internal("LRU-Fit batch: job threw");
      }
    }));
  }
  // Always drain every future — even after failures — so no task is left
  // running against a destroyed LruFitJob.
  for (size_t i = 0; i < futures.size(); ++i) {
    batch.statuses[i] = futures[i].get();
    if (batch.statuses[i].ok()) ++batch.num_ok;
  }
  jobs_ok.Increment(batch.num_ok);
  jobs_failed.Increment(batch.statuses.size() - batch.num_ok);
  return batch;
}

}  // namespace epfis
