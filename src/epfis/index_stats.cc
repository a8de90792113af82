#include "epfis/index_stats.h"

#include <algorithm>

namespace epfis {

FullScanPoint FullScanPointAt(const IndexStatsView& view,
                              double buffer_size) {
  if (view.knots == nullptr || view.knot_count < 2) return {};
  const Knot* first = view.knots;
  const Knot* last = view.knots + view.knot_count - 1;
  // The segments are a fit of measured F(B) samples and carry no
  // information outside the simulated knot range; extrapolating a steep
  // first or last segment can leave [A, N] entirely (below the first knot
  // it can even go negative before the value clamp catches it, and the
  // [A, N] clamp alone still breaks monotonicity in B). F(B) is
  // non-increasing, so the nearest boundary value is the tightest
  // defensible answer for an out-of-range query.
  double b = std::clamp(buffer_size, first->x, last->x);
  // Knot x's strictly increase, so the interior knots with x <= b are a
  // prefix and their count is upper_bound's index minus one. A catalog
  // curve has a handful of knots; counting them all costs less than the
  // mispredicted branches of a binary search. At b = first->x the count
  // is 0 and at b = last->x it is knot_count - 2, the end segments
  // PiecewiseLinear::Eval picks there.
  uint32_t hi = 1;
  for (const Knot* k = first + 1; k < last; ++k) hi += k->x <= b;
  const Knot& a = view.knots[hi - 1];
  const Knot& c = view.knots[hi];
  double slope = (c.y - a.y) / (c.x - a.x);
  double pf = a.y + slope * (b - a.x);
  // A full scan fetches at least every accessed page once and never more
  // than once per index entry; the fit must respect that too.
  double lo = static_cast<double>(view.pages_accessed);
  double hi_bound = static_cast<double>(view.table_records);
  if (hi_bound < lo) hi_bound = lo;
  return {std::clamp(pf, lo, hi_bound), hi};
}

IndexStatsView IndexStats::View() const {
  IndexStatsView view;
  view.table_pages = table_pages;
  view.table_records = table_records;
  view.pages_accessed = pages_accessed;
  view.clustering = clustering;
  if (fpf.has_value()) {
    view.knots = fpf->knots().data();
    view.knot_count = static_cast<uint32_t>(fpf->knots().size());
  }
  return view;
}

double IndexStats::FullScanFetches(double buffer_size) const {
  return FullScanPointAt(View(), buffer_size).fetches;
}

}  // namespace epfis
