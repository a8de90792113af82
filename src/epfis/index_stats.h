#ifndef EPFIS_EPFIS_INDEX_STATS_H_
#define EPFIS_EPFIS_INDEX_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/piecewise.h"

namespace epfis {

/// A borrowed, trivially-copyable view of the fields Est-IO actually reads
/// when evaluating an estimate. Both the single-probe path (viewing an
/// owned IndexStats) and the serving batch path (viewing a packed catalog
/// v3 entry inside an mmap'd file) evaluate through this one shape, which
/// is what makes the two paths bit-identical by construction.
///
/// The knot array is borrowed: whoever hands out a view guarantees the
/// backing storage (the IndexStats, or the CatalogSnapshot holding the
/// mapping) outlives it.
struct IndexStatsView {
  uint64_t table_pages = 0;    ///< T
  uint64_t table_records = 0;  ///< N
  uint64_t pages_accessed = 0; ///< A
  double clustering = 0.0;     ///< C
  const Knot* knots = nullptr; ///< FPF knots, ascending x; null = no curve.
  uint32_t knot_count = 0;
};

/// PF_B and the segment of the knot curve it was read from.
struct FullScanPoint {
  double fetches = 0.0;
  /// Index of the segment's right knot, in [1, knot_count - 1]; 0 when
  /// the view has no curve.
  uint32_t segment = 0;
};

/// PF_B over a raw knot view — the shared interpolation core. Clamps
/// `buffer_size` into the knot range (never extrapolates), interpolates the
/// containing segment, and clamps the value to the physical bounds [A, N].
/// The segment is found without branches on the knot values: its right
/// knot is 1 + the number of interior knots with x <= B, the index
/// PiecewiseLinear::Eval's upper_bound returns, so the two agree bit for
/// bit inside the knot range.
FullScanPoint FullScanPointAt(const IndexStatsView& view, double buffer_size);

/// Everything Subprogram LRU-Fit stores in the system catalog for one
/// index, and everything Subprogram Est-IO consumes at query compilation
/// time (§4 of the paper).
struct IndexStats {
  std::string index_name;

  uint64_t table_pages = 0;    ///< T: data pages in the table.
  uint64_t table_records = 0;  ///< N: records in the table.
  uint64_t distinct_keys = 0;  ///< I: distinct key values in the index.
  uint64_t pages_accessed = 0; ///< A: distinct data pages a full scan touches.

  uint64_t b_min = 0;  ///< Smallest modeled buffer size.
  uint64_t b_max = 0;  ///< Largest modeled buffer size (== T by default).
  uint64_t f_min = 0;  ///< Full-scan fetches at b_min.

  /// Clustering factor C = (N - F_min) / (N - T), clamped to [0, 1].
  double clustering = 0.0;

  /// Effective SHARDS sampling rate of the statistics pass that produced
  /// this entry (DESIGN.md §10); 1.0 means an exact pass. Est-IO
  /// consumers can read it as estimate provenance: at rate R the FPF
  /// knots, F_min, A, and C are rescaled sample estimates with relative
  /// error that shrinks as R·N grows, not exact counts.
  double sample_rate = 1.0;

  /// References the statistics pass actually simulated (== N when
  /// exact); the absolute sample size behind `sample_rate`.
  uint64_t sampled_refs = 0;

  /// Online-mode provenance (DESIGN.md §14). Batch entries leave all
  /// three at their zero defaults; entries published by OnlineLruFit
  /// record which publish of that engine produced them, the sliding
  /// window (in references) the decayed curve was maintained over, and
  /// the drift error against the previously published curve at publish
  /// time (0 for the bootstrap publish of an index with no prior entry).
  uint64_t online_generation = 0;
  uint64_t window_refs = 0;
  double drift_error = 0.0;

  /// The approximated FPF curve: buffer size -> full-scan page fetches.
  /// Stored as line-segment knots exactly as the paper's catalog entry.
  std::optional<PiecewiseLinear> fpf;

  /// Full-scan page-fetch estimate at buffer size `b` (PF_B in the paper):
  /// segment interpolation inside the fitted knot range; queries outside
  /// it are clamped to the nearest knot (never extrapolated — a steep end
  /// segment could otherwise leave [A, N] or break monotonicity in B).
  /// The result is additionally clamped to the physical bounds [A, N].
  /// Delegates to FullScanPointAt(View(), b).
  double FullScanFetches(double buffer_size) const;

  /// Borrows this entry's estimator-relevant fields. The view is valid
  /// only while this IndexStats is alive and unmodified.
  IndexStatsView View() const;
};

}  // namespace epfis

#endif  // EPFIS_EPFIS_INDEX_STATS_H_
