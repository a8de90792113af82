// Regression + property tests for IndexStats::FullScanFetches outside the
// fitted knot range. The FPF segments carry no information beyond the
// simulated buffer sizes, so out-of-range queries must clamp to the
// nearest knot — extrapolating a steep end segment can leave [A, N]
// entirely (negative beyond the last knot) and, through the value clamp,
// distort the curve's shape. Properties checked on random monotone
// curves: PF_B is finite, stays within [A, N], is non-increasing in B
// across a sweep that crosses both knot boundaries, and is exactly
// constant outside them. The counted segment search is checked bit for bit
// against PiecewiseLinear::Eval's binary search.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "epfis/index_stats.h"
#include "util/piecewise.h"
#include "util/random.h"

namespace epfis {
namespace {

IndexStats StatsWithCurve(std::vector<Knot> knots, uint64_t pages_accessed,
                          uint64_t table_records) {
  IndexStats stats;
  stats.index_name = "fpf_clamp_test";
  stats.table_pages = static_cast<uint64_t>(knots.back().x);
  stats.table_records = table_records;
  stats.pages_accessed = pages_accessed;
  stats.b_min = static_cast<uint64_t>(knots.front().x);
  stats.b_max = static_cast<uint64_t>(knots.back().x);
  stats.f_min = static_cast<uint64_t>(knots.front().y);
  stats.fpf = PiecewiseLinear::FromKnots(std::move(knots)).value();
  return stats;
}

TEST(FpfClampPropertyTest, QueriesOutsideKnotRangeClampToNearestKnot) {
  // Steep end segments: extrapolating left of B=10 would climb past
  // 30000 (and past N), extrapolating right of B=20 would go negative.
  IndexStats stats =
      StatsWithCurve({{10, 30000}, {20, 100}}, /*pages_accessed=*/50,
                     /*table_records=*/40000);

  double at_min = stats.FullScanFetches(10);
  double at_max = stats.FullScanFetches(20);
  EXPECT_DOUBLE_EQ(at_min, 30000.0);
  EXPECT_DOUBLE_EQ(at_max, 100.0);

  // Below the knot range: the old linear extrapolation gave 44950 at B=5;
  // the clamp must pin the boundary value instead.
  EXPECT_DOUBLE_EQ(stats.FullScanFetches(5), at_min);
  EXPECT_DOUBLE_EQ(stats.FullScanFetches(0), at_min);
  // Above: extrapolation gave -29800 at B=30 (then the value clamp pulled
  // it up to A=50, below every real curve value); now it is F(b_max).
  EXPECT_DOUBLE_EQ(stats.FullScanFetches(30), at_max);
  EXPECT_DOUBLE_EQ(stats.FullScanFetches(1e9), at_max);
}

TEST(FpfClampPropertyTest, MissingCurveStillReturnsZero) {
  IndexStats stats;
  stats.pages_accessed = 100;
  stats.table_records = 1000;
  EXPECT_DOUBLE_EQ(stats.FullScanFetches(50), 0.0);
}

TEST(FpfClampPropertyTest, RandomMonotoneCurvesStayBoundedAndMonotone) {
  Rng rng(20260805);
  for (int iter = 0; iter < 200; ++iter) {
    // Random non-increasing FPF curve: 2-8 knots over a random buffer
    // range, values descending from near N toward A.
    const uint64_t table_records = 1000 + rng.NextBounded(100'000);
    const uint64_t pages_accessed = 1 + rng.NextBounded(table_records / 4);
    const size_t num_knots = 2 + rng.NextBounded(7);

    std::vector<Knot> knots;
    double x = 1.0 + static_cast<double>(rng.NextBounded(100));
    double y = static_cast<double>(pages_accessed) +
               rng.NextDouble() * static_cast<double>(table_records -
                                                      pages_accessed);
    for (size_t k = 0; k < num_knots; ++k) {
      knots.push_back({x, y});
      x += 1.0 + static_cast<double>(rng.NextBounded(500));
      y -= rng.NextDouble() * (y - static_cast<double>(pages_accessed)) *
           0.9;
    }
    IndexStats stats = StatsWithCurve(knots, pages_accessed, table_records);

    // Sweep well past both ends of the knot range.
    const double b_min = knots.front().x;
    const double b_max = knots.back().x;
    const double lo = static_cast<double>(pages_accessed);
    const double hi = static_cast<double>(table_records);
    double previous = hi + 1.0;
    for (int step = 0; step <= 100; ++step) {
      double b = (b_max + 10.0) * static_cast<double>(step) / 100.0;
      double pf = stats.FullScanFetches(b);
      ASSERT_TRUE(std::isfinite(pf)) << "b=" << b;
      ASSERT_GE(pf, lo) << "b=" << b;
      ASSERT_LE(pf, hi) << "b=" << b;
      ASSERT_LE(pf, previous + 1e-9)
          << "PF_B increased at b=" << b << " (iter " << iter << ")";
      previous = pf;
    }

    // Constant outside the knot range, continuous at the boundaries.
    EXPECT_DOUBLE_EQ(stats.FullScanFetches(b_min - 5.0),
                     stats.FullScanFetches(b_min));
    EXPECT_DOUBLE_EQ(stats.FullScanFetches(0.0),
                     stats.FullScanFetches(b_min));
    EXPECT_DOUBLE_EQ(stats.FullScanFetches(b_max + 5.0),
                     stats.FullScanFetches(b_max));
    EXPECT_DOUBLE_EQ(stats.FullScanFetches(b_max * 100.0),
                     stats.FullScanFetches(b_max));
  }
}

// Knots with strictly increasing x from 1-50, each step 1-400 wide, and y
// falling from up to 1e6 toward 0.
std::vector<Knot> RandomKnots(Rng& rng, size_t count) {
  std::vector<Knot> knots;
  double x = 1.0 + static_cast<double>(rng.NextBounded(50));
  double y = 1000.0 + 1e6 * rng.NextDouble();
  for (size_t k = 0; k < count; ++k) {
    knots.push_back({x, y});
    x += 1.0 + static_cast<double>(rng.NextBounded(400)) + rng.NextDouble();
    y -= 0.5 * rng.NextDouble() * y;
  }
  return knots;
}

// FullScanPointAt counts the interior knots with x <= B instead of
// binary-searching for the segment. It must pick the segment
// PiecewiseLinear::Eval picks and return the same bits, with B on every
// knot, just either side of it, between knots, below the first knot and
// above the last (where both read the clamped B).
TEST(FullScanSegmentTest, CountedSearchMatchesPiecewiseEvalBits) {
  Rng rng(16);
  for (int iter = 0; iter < 400; ++iter) {
    // Even iterations use hand-made knot sets; odd ones fit six segments
    // to a sampled curve, as LRU-Fit does.
    std::vector<Knot> knots =
        iter % 2 == 0
            ? RandomKnots(rng, 2 + rng.NextBounded(11))
            : FitPiecewiseLinear(RandomKnots(rng, 3 + rng.NextBounded(60)),
                                 6)
                  .value()
                  .knots();
    PiecewiseLinear curve = PiecewiseLinear::FromKnots(knots).value();
    IndexStatsView view;
    view.table_records = uint64_t{1} << 52;  // The [A, N] clamp is inert.
    view.knots = knots.data();
    view.knot_count = static_cast<uint32_t>(knots.size());
    const Knot& first = knots.front();
    const Knot& last = knots.back();

    std::vector<double> queries = {0.0, first.x - 1.0, last.x + 1.0, 1e18};
    for (size_t k = 0; k < knots.size(); ++k) {
      double x = knots[k].x;
      queries.push_back(x);
      queries.push_back(std::nextafter(x, 0.0));
      queries.push_back(std::nextafter(x, 1e300));
      if (k + 1 < knots.size()) {
        double next = knots[k + 1].x;
        queries.push_back(0.5 * (x + next));
        queries.push_back(x + rng.NextDouble() * (next - x));
      }
    }
    for (double b : queries) {
      double in_range = std::clamp(b, first.x, last.x);
      uint32_t segment = 1;
      if (in_range >= last.x) {
        segment = static_cast<uint32_t>(knots.size() - 1);
      } else if (in_range > first.x) {
        segment = static_cast<uint32_t>(
            std::upper_bound(knots.begin(), knots.end(), in_range,
                             [](double v, const Knot& k) { return v < k.x; }) -
            knots.begin());
      }
      FullScanPoint point = FullScanPointAt(view, b);
      double expected = curve.Eval(in_range);
      ASSERT_EQ(point.segment, segment) << "iter " << iter << " b=" << b;
      ASSERT_EQ(std::memcmp(&point.fetches, &expected, sizeof(double)), 0)
          << "iter " << iter << " b=" << b << ": " << point.fetches
          << " vs " << expected;
    }
  }
}

}  // namespace
}  // namespace epfis
