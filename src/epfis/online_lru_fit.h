#ifndef EPFIS_EPFIS_ONLINE_LRU_FIT_H_
#define EPFIS_EPFIS_ONLINE_LRU_FIT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "buffer/decayed_window.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/lru_fit.h"
#include "storage/page.h"
#include "util/result.h"

namespace epfis {

class StatsCatalog;

/// Drift policy for OnlineLruFit: how far the live curve may wander from
/// the published catalog entry, and for how long, before a refresh is
/// worth the publish.
struct DriftDetectorOptions {
  /// Maximum tolerated relative FPF error (max over the modeled buffer
  /// sizes of |live - published| / published, both per-record). An error
  /// strictly above the band counts against the patience; an error at or
  /// below it resets the streak — the detector is deliberately one-sided
  /// so an entry sitting exactly on the band never flaps.
  double band = 0.05;

  /// Consecutive out-of-band checks required before a refresh triggers;
  /// 1 means the first excursion republishes. Patience absorbs transient
  /// excursions (a burst of cold pages mid-window) that the decay will
  /// wash out on its own.
  int patience = 3;

  Status Validate() const {
    if (!(band >= 0.0)) {
      return Status::InvalidArgument(
          "drift: band must be a non-negative number");
    }
    if (patience < 1) {
      return Status::InvalidArgument("drift: patience must be >= 1");
    }
    return Status::Ok();
  }
};

/// Streak counter over the drift-error sequence (DESIGN.md §14).
///
/// Observe(error) implements the trigger policy of DriftDetectorOptions:
///   * error >  band      — the streak grows; returns true once it
///                          reaches `patience` (and keeps returning true
///                          until the streak is reset, so a failed publish
///                          retriggers on the next check).
///   * error <= band      — the streak resets to zero.
///   * error is NaN       — an invalid measurement (no live data yet, or
///                          no published curve to compare against): the
///                          streak is left *unchanged* and Observe returns
///                          false. NaN is not evidence of drift, but it is
///                          not evidence of health either.
///
/// The caller — not Observe — resets the streak, and only after a
/// *successful* publish: triggering is cheap, publishing is not, and a
/// publish that failed must not eat the accumulated evidence.
class DriftDetector {
 public:
  explicit DriftDetector(DriftDetectorOptions options) : options_(options) {}

  /// Feeds one drift measurement; returns whether a refresh should fire.
  bool Observe(double error);

  /// Clears the streak (after a successful publish).
  void ResetStreak() { streak_ = 0; }

  int streak() const { return streak_; }
  double last_error() const { return last_error_; }

 private:
  DriftDetectorOptions options_;
  int streak_ = 0;
  double last_error_ = std::numeric_limits<double>::quiet_NaN();
};

/// Options for the online statistics engine.
struct OnlineLruFitOptions {
  /// T: data pages of the table the stream references. Required (> 0);
  /// it bounds the modeled buffer range exactly as in batch LRU-Fit.
  uint64_t table_pages = 0;

  /// N for published entries and for the live-curve scale. 0 (the
  /// default) uses the cumulative reference count of the stream — the
  /// natural choice for an open-ended stream, and the value batch
  /// LRU-Fit would have recorded for the same trace.
  uint64_t table_records = 0;

  /// I: distinct key values, copied into published entries.
  uint64_t distinct_keys = 0;

  /// W: decay scale of the sliding window, in references (see
  /// DecayedReuseWindow). Must be > 0.
  uint64_t window_refs = uint64_t{1} << 20;

  /// References between refreshes (window absorption + drift check).
  /// Must be > 0; keep it well under `window_refs` or the window
  /// degenerates into disjoint batches.
  uint64_t refresh_interval = uint64_t{1} << 16;

  /// SHARDS sampling of the long-lived kernel (buffer/sampling.h), at a
  /// rate fixed when the engine is built. A non-zero `sample_max_pages`
  /// K lowers the rate to min(sample_rate, K / table_pages), the same
  /// page target as batch LRU-Fit: the sample then holds about K pages
  /// however long the stream runs. 0 keeps `sample_rate` as given.
  double sample_rate = 1.0;
  uint64_t sample_max_pages = 0;

  DriftDetectorOptions drift;

  /// Curve-fitting knobs shared with batch LRU-Fit (segments, schedule,
  /// range overrides).
  LruFitOptions fit;

  Status Validate() const;
};

/// Subprogram LRU-Fit as a resident engine (DESIGN.md §14): instead of a
/// periodic batch re-run over a captured trace, the statistics stream is
/// ingested continuously in bounded memory, a decayed sliding window keeps
/// the FPF curve live, and the published catalog entry is refreshed only
/// when the live curve has drifted out of tolerance — through the same
/// StatsCatalog::Publish() RCU swap the batch path uses, so concurrent
/// EstimateBatch readers are never blocked by a refresh.
///
/// Pipeline per `refresh_interval` references:
///
///   kernel (SHARDS-sampled Mattson stack) --delta--> DecayedReuseWindow
///     --tail ratio--> live FPF curve at the scheduled buffer sizes
///     --vs snapshot entry--> drift error --> DriftDetector
///     --on trigger (or bootstrap)--> fit knots, Put + Publish
///
/// The first refresh of an index with no published entry publishes
/// unconditionally (bootstrap): Est-IO degrades to the formula estimate
/// until some entry exists, so waiting for "drift" against nothing only
/// prolongs the degraded window.
///
/// Errors from a refresh (injected faults at `online.refresh.emit` /
/// `online.publish`, or a real publish failure) propagate out of Ingest
/// but leave the engine consistent: the kernel has absorbed the
/// references, and the next interval retries the refresh.
///
/// Not thread-safe: one ingesting thread per engine. Concurrency with
/// readers comes from the catalog snapshot, not from this class.
class OnlineLruFit {
 public:
  /// `catalog` must be non-null and outlive the engine.
  OnlineLruFit(std::string index_name, OnlineLruFitOptions options,
               StatsCatalog* catalog);

  /// Validates options; call before the first Ingest. (Constructor stays
  /// cheap and non-failing; an invalid engine fails here and on Ingest.)
  Status Validate() const { return options_.Validate(); }

  /// Feeds `count` references, refreshing every `refresh_interval`.
  /// InvalidArgument, with nothing absorbed, if `refs` holds a page id
  /// at or above kPageIdLimit (see ValidatePageRefs).
  Status Ingest(const PageId* refs, size_t count);
  Status Ingest(const std::vector<PageId>& refs) {
    return Ingest(refs.data(), refs.size());
  }

  /// Forces a refresh now (shutdown flush, tests). Also restarts the
  /// interval clock. Every refresh, forced or not, records its duration
  /// in the `online.refresh_ns` histogram.
  Status Refresh();

  /// The live curve materialized as a catalog entry: windowed FPF knots
  /// fitted by least squares, online provenance filled in.
  /// Fails before the first absorb (no live data yet).
  Result<IndexStats> BuildStats() const;

  const DriftDetector& detector() const { return detector_; }

  /// Total references ingested.
  uint64_t total_refs() const;

  uint64_t refreshes() const { return refreshes_; }
  uint64_t publishes() const { return publishes_; }

  /// Drift error of the latest refresh; NaN before the first refresh and
  /// when no comparison was possible (no live data / no published entry).
  double last_drift_error() const { return detector_.last_error(); }

 private:
  /// Live per-record FPF estimates at `sizes` from the decayed window:
  /// est(B) = A + (N - A) * TailWeight(B) / reref_weight, clamped to
  /// [A, N] — the windowed analog of SampledStackDistances::Fetches.
  std::vector<double> LiveFetches(const std::vector<uint64_t>& sizes) const;

  /// Max relative per-record FPF error of the live curve against the
  /// published snapshot entry; NaN when either side is unavailable.
  double DriftError(const std::vector<uint64_t>& sizes) const;

  Status PublishStats(double drift_error);

  std::string index_name_;
  OnlineLruFitOptions options_;
  StatsCatalog* catalog_;

  StackDistanceKernel kernel_;
  DecayedReuseWindow window_;
  DriftDetector detector_;

  uint64_t refs_since_refresh_ = 0;
  uint64_t refreshes_ = 0;
  uint64_t publishes_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_EPFIS_ONLINE_LRU_FIT_H_
