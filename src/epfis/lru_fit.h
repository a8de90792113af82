#ifndef EPFIS_EPFIS_LRU_FIT_H_
#define EPFIS_EPFIS_LRU_FIT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "epfis/fpf_curve.h"
#include "epfis/index_stats.h"
#include "epfis/trace_source.h"
#include "storage/page.h"
#include "util/cancel.h"
#include "util/result.h"

namespace epfis {

class StatsCatalog;
class ThreadPool;

/// Options for Subprogram LRU-Fit (§4.1).
struct LruFitOptions {
  /// Smallest buffer size ever modeled (B_sml). The paper uses 12 "to avoid
  /// the large effects on page fetches due to too small a buffer size".
  uint64_t b_sml = 12;

  /// Number of approximating line segments; the paper settles on 6 after
  /// sensitivity experiments (reproduced in bench_ablation_segments).
  int num_segments = 6;

  /// Fitting criterion for the segment knots: least squares (default) or
  /// minimax (the criterion of Natarajan 1991, which §4.1 cites).
  enum class FitCriterion { kLeastSquares, kMinimax };
  FitCriterion fit_criterion = FitCriterion::kLeastSquares;

  /// Spacing of the modeled buffer sizes.
  BufferSchedule schedule = BufferSchedule::kPaperLinear;

  /// DBA-specified modeling range; when absent the paper's defaults apply:
  /// B_min = max(0.01 * T, b_sml), B_max = T.
  std::optional<uint64_t> b_min_override;
  std::optional<uint64_t> b_max_override;

  /// When non-null, the stack simulation is sharded across this pool's
  /// workers (bit-identical results; see ComputeStackDistances). Leave
  /// null inside RunLruFitBatch jobs — the batch parallelizes across
  /// indexes instead and resets this to avoid pool self-deadlock.
  ThreadPool* pool = nullptr;

  /// Trace shards when `pool` is set; 0 = 2 shards per pool worker (see
  /// StackDistanceOptions::num_shards).
  size_t num_shards = 0;

  /// SHARDS spatial sampling of the statistics pass (DESIGN.md §10): keep
  /// a page's references iff its hash falls under `sample_rate`, run the
  /// exact simulation over that subset, rescale. Cuts the dominant
  /// statistics-refresh cost by ~1/rate at a few percent of FPF-curve
  /// error; 1.0 (the default) is the exact pass, bit-identical to before.
  double sample_rate = 1.0;

  /// Fixed-size adaptive sampling: cap the sampled-page set at this many
  /// distinct pages, lowering the rate on the fly as the trace reveals
  /// its working set (bounds memory, runs serial). 0 disables the cap.
  /// Composable with `sample_rate` as the starting rate. Serial-only:
  /// combining a non-zero cap with `pool` is an InvalidArgument (the
  /// evolving threshold cannot be sharded); RunLruFitBatch jobs run it
  /// on the serial kernel, parallelism coming from the jobs themselves.
  uint64_t sample_max_pages = 0;

  /// Cooperative cancellation and wall-clock budget for the whole fit:
  /// forwarded into the stack simulation (serial chunks, parallel shards,
  /// and the streaming merge all poll) and checked again between phases.
  /// A fired token surfaces as Cancelled, an expired deadline as
  /// DeadlineExceeded; the defaults (null token, infinite deadline) keep
  /// completed runs bit-identical to an unguarded fit. In RunLruFitBatch
  /// these act per job: set `deadline` on each job's options to bound
  /// that job alone.
  CancellationToken cancel;
  Deadline deadline;

  /// Checks the options for internal consistency: at least one segment,
  /// a non-zero B_sml, overrides with b_min_override <= b_max_override,
  /// a sample rate in (0, 1], and no pool alongside sample_max_pages.
  /// RunLruFit calls this first, so option errors surface as
  /// InvalidArgument before any simulation work starts.
  Status Validate() const;
};

/// Runs Subprogram LRU-Fit over the data-page reference string of a *full*
/// index scan (the source yields the page of the record pointed to by each
/// index entry, in key order). One pass of the Mattson stack simulation
/// yields the FPF table for every modeled buffer size; the table is then
/// approximated with line segments and the clustering factor C is derived
/// from F at B_min. The result is exactly the catalog entry Est-IO
/// consumes.
///
/// The trace is pulled in chunks from `trace` (vector-backed, file-backed,
/// or online) and is never required to be resident in memory; with
/// `options.pool` set the simulation itself runs sharded in parallel.
///
/// `table_pages` is T (it may exceed the number of *accessed* pages if some
/// pages hold no indexed records). The record count N is the trace length.
/// Fails on an empty trace, invalid options, or impossible range.
Result<IndexStats> RunLruFit(TraceSource& trace, uint64_t table_pages,
                             uint64_t distinct_keys, std::string index_name,
                             const LruFitOptions& options = {});

/// Compatibility overload for in-memory traces (`trace[i]` = page of the
/// record pointed to by the i-th index entry in key order). Thin wrapper:
/// adapts the vector with VectorTraceSource::View.
Result<IndexStats> RunLruFit(const std::vector<PageId>& trace,
                             uint64_t table_pages, uint64_t distinct_keys,
                             std::string index_name,
                             const LruFitOptions& options = {});

/// The raw sampled FPF points for the trace at the scheduled buffer sizes
/// (before segment approximation); used by Figure 1 and the ablations.
/// With `pool` set the underlying simulation is sharded.
Result<std::vector<FpfPoint>> SampleFpfCurve(TraceSource& trace,
                                             uint64_t b_min, uint64_t b_max,
                                             BufferSchedule schedule,
                                             ThreadPool* pool = nullptr);

/// Compatibility overload for in-memory traces.
Result<std::vector<FpfPoint>> SampleFpfCurve(const std::vector<PageId>& trace,
                                             uint64_t b_min, uint64_t b_max,
                                             BufferSchedule schedule);

/// One statistics-collection request in a RunLruFitBatch call.
struct LruFitJob {
  std::unique_ptr<TraceSource> trace;
  uint64_t table_pages = 0;
  uint64_t distinct_keys = 0;
  std::string index_name;
  LruFitOptions options;
};

/// Outcome of a RunLruFitBatch call: one status per job, in job order.
struct LruFitBatchResult {
  std::vector<Status> statuses;
  size_t num_ok = 0;

  bool all_ok() const { return num_ok == statuses.size(); }
};

/// Collects statistics for many indexes concurrently: each job runs
/// LRU-Fit on a pool worker and, on success, publishes its IndexStats into
/// `catalog` (StatsCatalog is internally synchronized). This is the
/// production-shaped entry point — a periodic statistics daemon refreshing
/// every index of a database is one RunLruFitBatch call.
///
/// Per-job `options.pool` is ignored (reset to null): parallelism comes
/// from running jobs concurrently, and a job blocking on sub-tasks of the
/// same pool could deadlock it. Failed jobs leave the catalog untouched
/// and report their error in the returned statuses.
LruFitBatchResult RunLruFitBatch(std::vector<LruFitJob> jobs,
                                 ThreadPool& pool, StatsCatalog* catalog);

}  // namespace epfis

#endif  // EPFIS_EPFIS_LRU_FIT_H_
