#include "epfis/online_lru_fit.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "catalog/stats_catalog.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/formulas.h"

namespace epfis {
namespace {

/// The modeled buffer sizes for the online curve — the same range rule as
/// batch LRU-Fit (DetermineRange in lru_fit.cc): B_max = T, B_min =
/// max(0.01 * T, b_sml), both overridable.
Result<std::vector<uint64_t>> OnlineSchedule(uint64_t table_pages,
                                             const LruFitOptions& fit) {
  uint64_t b_max = fit.b_max_override.value_or(table_pages);
  uint64_t b_min = fit.b_min_override.value_or(
      std::max<uint64_t>(static_cast<uint64_t>(std::ceil(
                             0.01 * static_cast<double>(table_pages))),
                         fit.b_sml));
  b_min = std::max<uint64_t>(b_min, 1);
  if (b_min > b_max) b_min = b_max;
  if (b_max == 0) {
    return Status::InvalidArgument("online LRU-Fit: empty modeling range");
  }
  return MakeBufferSchedule(b_min, b_max, fit.schedule);
}

}  // namespace

bool DriftDetector::Observe(double error) {
  last_error_ = error;
  if (std::isnan(error)) return false;  // Invalid measurement: no evidence.
  if (error > options_.band) {
    if (streak_ < options_.patience) ++streak_;
  } else {
    streak_ = 0;
  }
  return streak_ >= options_.patience;
}

Status OnlineLruFitOptions::Validate() const {
  if (table_pages == 0) {
    return Status::InvalidArgument("online LRU-Fit: table_pages must be > 0");
  }
  if (window_refs == 0) {
    return Status::InvalidArgument("online LRU-Fit: window_refs must be > 0");
  }
  if (refresh_interval == 0) {
    return Status::InvalidArgument(
        "online LRU-Fit: refresh_interval must be > 0");
  }
  EPFIS_RETURN_IF_ERROR(drift.Validate());
  LruFitOptions effective = fit;
  effective.sample_rate = sample_rate;
  effective.sample_max_pages = sample_max_pages;
  return effective.Validate();
}

OnlineLruFit::OnlineLruFit(std::string index_name,
                           OnlineLruFitOptions options, StatsCatalog* catalog)
    : index_name_(std::move(index_name)),
      options_(options),
      catalog_(catalog),
      kernel_(/*expected_refs=*/options.window_refs, /*window_hint=*/0,
              SamplingOptions{SampleRateForPages(options.sample_rate,
                                                 options.sample_max_pages,
                                                 options.table_pages)}),
      window_(std::max<uint64_t>(options.window_refs, 1)),
      detector_(options.drift) {}

uint64_t OnlineLruFit::total_refs() const {
  return kernel_.sampling_summary().total_refs;
}

Status OnlineLruFit::Ingest(const PageId* refs, size_t count) {
  EPFIS_RETURN_IF_ERROR(options_.Validate());
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition("online LRU-Fit: no catalog attached");
  }
  EPFIS_RETURN_IF_ERROR(ValidatePageRefs(refs, count));
  while (count > 0) {
    EPFIS_RETURN_IF_ERROR(CheckCancel(options_.cancel, options_.fit.deadline,
                                      "online ingest"));
    uint64_t room = options_.refresh_interval - refs_since_refresh_;
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(count, std::max<uint64_t>(room, 1)));
    kernel_.AccessAll(refs, take);
    refs += take;
    count -= take;
    refs_since_refresh_ += take;
    if (refs_since_refresh_ >= options_.refresh_interval) {
      EPFIS_RETURN_IF_ERROR(Refresh());
    }
  }
  return Status::Ok();
}

Status OnlineLruFit::IngestAll(TraceSource& trace) {
  std::vector<PageId> buffer(1 << 14);
  for (;;) {
    EPFIS_ASSIGN_OR_RETURN(size_t got,
                           trace.Next(buffer.data(), buffer.size()));
    if (got == 0) return Status::Ok();
    EPFIS_RETURN_IF_ERROR(Ingest(buffer.data(), got));
  }
}

std::vector<double> OnlineLruFit::LiveFetches(
    const std::vector<uint64_t>& sizes) const {
  // The windowed analog of SampledStackDistances::Fetches: the cold term
  // A comes from the kernel's exact distinct-page count, and the
  // finite-distance tail is a miss fraction of the window's re-reference
  // weight, so the estimate stays inside [A, N].
  // With an exact kernel and a single whole-history absorb this
  // reproduces histogram.Fetches(B) exactly (the convergence tests
  // assert it): est = A + (N - A) * (F - A) / (N - A) = F.
  double n = static_cast<double>(
      options_.table_records > 0 ? options_.table_records : total_refs());
  double a = static_cast<double>(kernel_.sampled_result().distinct_pages());
  a = std::min(a, static_cast<double>(options_.table_pages));
  a = std::min(a, n);
  // The window lives in the kernel's *emission* domain (that is what is
  // cumulative-monotone, the property Absorb's delta depends on). Exact
  // runs emit full-trace distances already; sampled runs emit raw
  // sampled-domain distances — there a full-trace buffer size b
  // corresponds to sampled distance 1 + (b - 1) / factor, with factor the
  // realized page ratio (P - 1)/(K - 1), so the query is mapped into the
  // sampled domain with the *current* factor instead of rescaling past
  // emissions (whose factor has since moved).
  SamplingSummary summary = kernel_.sampling_summary();
  const bool sampled = summary.active();
  double factor = 1.0;
  if (sampled) {
    factor = SampledDistanceScale(
        summary.exact_distinct, kernel_.cold_misses(),
        summary.effective_rate > 0.0 ? 1.0 / summary.effective_rate : 1.0);
  }
  // Miss-probability normalization splits by mode. Exact runs
  // self-normalize: every emitted weight lives in the same (full-trace)
  // domain, so tail / rerefs is the re-reference miss fraction directly.
  // Sampled runs must NOT self-normalize: the sampled re-reference
  // weight is dominated by whichever hot pages the hash filter happened
  // to keep (a Zipf head is a handful of pages carrying a large share of
  // references), so tail_s / rerefs_s inherits that coverage noise as a
  // uniform bias. Horvitz-Thompson weighting sidesteps it — each sampled
  // weight stands for 1/R true references, and the denominator is built
  // from the *exact* decayed reference weight the window also tracks:
  //   rerefs_true ~= total - cold_s / R.
  double rate = summary.effective_rate > 0.0 ? summary.effective_rate : 1.0;
  double rerefs = sampled
                      ? window_.total_weight() - window_.cold_weight() / rate
                      : window_.reref_weight();
  double tail_scale = sampled ? 1.0 / rate : 1.0;
  std::vector<double> fetches;
  fetches.reserve(sizes.size());
  for (uint64_t b : sizes) {
    // Sampled buckets live in the sampled domain: a full-trace size b
    // maps to 1 + (b - 1)/factor, which is almost never an integer. Query
    // the fractional boundary directly — rounding to the nearer bucket
    // staircases the deep tail, where one sampled-domain bucket spans
    // `factor` full-trace sizes.
    double b_query = static_cast<double>(b);
    if (factor > 1.0 && b > 0) {
      // Centered against the batch rescale, which lands sampled bucket d
      // at full-trace bucket 1 + round((d-1)·factor): a tail cut at b
      // excludes bucket d exactly when (d-1)·factor >= b - 0.5, so the
      // matching sampled-domain boundary is offset by the half unit.
      b_query = 1.0 + (static_cast<double>(b) - 0.5) / factor;
    }
    double est = a;
    if (rerefs > 0.0) {
      est += (n - a) *
             Clamp(tail_scale * window_.TailWeightAt(b_query) / rerefs, 0.0,
                   1.0);
    }
    fetches.push_back(Clamp(est, a, n));
  }
  return fetches;
}

double OnlineLruFit::DriftError(const std::vector<uint64_t>& sizes) const {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (window_.absorbs() == 0 || !(window_.total_weight() > 0.0)) return kNaN;
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog_->snapshot();
  CatalogSnapshot::Handle handle = snapshot->Resolve(index_name_);
  if (!handle.valid() || snapshot->IsQuarantined(index_name_)) return kNaN;
  const CatalogSnapshot::Entry& entry = snapshot->EntryAt(handle);
  if (entry.view.table_records == 0) return kNaN;

  // Compare per-record fetch fractions, not absolute fetch counts: on an
  // open-ended stream the live N grows past the N frozen into the
  // published entry, and absolute curves would report that growth as
  // "drift" even when the reference behavior is unchanged. Fractions are
  // scale-free; for a fixed table_records the two comparisons coincide.
  double live_n = static_cast<double>(
      options_.table_records > 0 ? options_.table_records : total_refs());
  if (!(live_n > 0.0)) return kNaN;
  double published_n = static_cast<double>(entry.view.table_records);
  std::vector<double> live = LiveFetches(sizes);
  double max_err = 0.0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    double published_frac =
        FullScanPointAt(entry.view, static_cast<double>(sizes[i])).fetches /
        published_n;
    double live_frac = live[i] / live_n;
    if (!(published_frac > 0.0)) return kNaN;
    max_err = std::max(max_err,
                       std::abs(live_frac - published_frac) / published_frac);
  }
  return max_err;
}

Status OnlineLruFit::Refresh() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter refreshes = registry.GetCounter("online.refreshes");
  static Counter publishes = registry.GetCounter("online.publishes");
  static Gauge drift_ppm = registry.GetGauge("online.drift_error_ppm");

  // Restart the interval clock first: the kernel has already absorbed the
  // references, so a failed refresh retries at the *next* interval — the
  // cumulative delta is picked up then, nothing is lost.
  refs_since_refresh_ = 0;
  ++refreshes_;
  refreshes.Increment();
  EPFIS_RETURN_IF_ERROR(FaultPoint("online.refresh.emit"));

  window_.Absorb(kernel_.histogram(), kernel_.sampling_summary());

  EPFIS_ASSIGN_OR_RETURN(
      std::vector<uint64_t> sizes,
      OnlineSchedule(options_.table_pages, options_.fit));
  double err = DriftError(sizes);
  drift_ppm.Set(std::isnan(err) ? int64_t{-1}
                                : static_cast<int64_t>(std::llround(
                                      err * 1e6)));

  bool bootstrap =
      !catalog_->snapshot()->Resolve(index_name_).valid() &&
      !catalog_->Contains(index_name_);
  bool triggered = detector_.Observe(err);
  if (!bootstrap && !triggered) return Status::Ok();

  EPFIS_RETURN_IF_ERROR(PublishStats(std::isnan(err) ? 0.0 : err));
  publishes.Increment();
  detector_.ResetStreak();
  return Status::Ok();
}

Status OnlineLruFit::PublishStats(double drift_error) {
  EPFIS_RETURN_IF_ERROR(FaultPoint("online.publish"));
  EPFIS_ASSIGN_OR_RETURN(IndexStats stats, BuildStats());
  stats.drift_error = drift_error;
  catalog_->Put(std::move(stats));
  // The RCU swap is atomic: a failed Publish leaves readers on the
  // previous generation, and the caller keeps the detector streak, so the
  // next interval retriggers the refresh.
  EPFIS_RETURN_IF_ERROR(catalog_->Publish());
  ++publishes_;
  return Status::Ok();
}

Result<IndexStats> OnlineLruFit::BuildStats() const {
  if (window_.absorbs() == 0) {
    return Status::FailedPrecondition(
        "online LRU-Fit: no refresh has absorbed any references yet");
  }
  EPFIS_ASSIGN_OR_RETURN(
      std::vector<uint64_t> sizes,
      OnlineSchedule(options_.table_pages, options_.fit));
  std::vector<double> fetches = LiveFetches(sizes);
  SamplingSummary summary = kernel_.sampling_summary();

  IndexStats stats;
  stats.index_name = index_name_;
  stats.table_pages = options_.table_pages;
  stats.table_records = options_.table_records > 0 ? options_.table_records
                                                   : summary.total_refs;
  stats.distinct_keys = options_.distinct_keys;
  uint64_t accessed = kernel_.sampled_result().distinct_pages();
  stats.pages_accessed = std::min(accessed, options_.table_pages);
  stats.b_min = sizes.front();
  stats.b_max = sizes.back();
  stats.f_min = static_cast<uint64_t>(std::llround(fetches.front()));
  stats.sample_rate = summary.effective_rate;
  stats.sampled_refs = summary.sampled_refs;
  stats.online_generation = publishes_ + 1;
  stats.window_refs = options_.window_refs;

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
  for (size_t i = 0; i < sizes.size(); ++i) {
    points.push_back(Knot{static_cast<double>(sizes[i]), fetches[i]});
  }
  if (points.size() == 1) {
    points.push_back(Knot{points[0].x + 1.0, points[0].y});
  }
  EPFIS_ASSIGN_OR_RETURN(
      PiecewiseLinear fit,
      options_.fit.fit_criterion == LruFitOptions::FitCriterion::kMinimax
          ? FitPiecewiseLinearMinimax(points, options_.fit.num_segments)
          : FitPiecewiseLinear(points, options_.fit.num_segments));
  stats.fpf = std::move(fit);
  return stats;
}

}  // namespace epfis
