#include "epfis/lru_fit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "buffer/lru_simulator.h"
#include "buffer/sampling.h"
#include "util/random.h"

namespace epfis {
namespace {

// A clustered trace: pages in order, `reps` references each.
std::vector<PageId> ClusteredTrace(uint32_t pages, int reps) {
  std::vector<PageId> trace;
  for (PageId p = 0; p < pages; ++p) {
    for (int r = 0; r < reps; ++r) trace.push_back(p);
  }
  return trace;
}

// A maximally unclustered trace: round-robin over all pages.
std::vector<PageId> RoundRobinTrace(uint32_t pages, int rounds) {
  std::vector<PageId> trace;
  for (int r = 0; r < rounds; ++r) {
    for (PageId p = 0; p < pages; ++p) trace.push_back(p);
  }
  return trace;
}

TEST(LruFitTest, RejectsEmptyTrace) {
  EXPECT_FALSE(RunLruFit({}, 10, 5, "x").ok());
}

TEST(LruFitTest, RejectsZeroSegments) {
  LruFitOptions options;
  options.num_segments = 0;
  EXPECT_FALSE(RunLruFit({1, 2, 3}, 10, 3, "x", options).ok());
}

TEST(LruFitTest, ClusteredIndexHasCOne) {
  auto trace = ClusteredTrace(200, 5);
  auto stats = RunLruFit(trace, 200, 100, "clustered");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->table_pages, 200u);
  EXPECT_EQ(stats->table_records, trace.size());
  EXPECT_EQ(stats->pages_accessed, 200u);
  EXPECT_DOUBLE_EQ(stats->clustering, 1.0);
  // F == A == T at every buffer size for a clustered index.
  EXPECT_EQ(stats->f_min, 200u);
  for (double b : {12.0, 50.0, 100.0, 200.0}) {
    EXPECT_NEAR(stats->FullScanFetches(b), 200.0, 1e-9) << "b=" << b;
  }
}

TEST(LruFitTest, RoundRobinIsMaximallyUnclustered) {
  // Round-robin over 200 pages with any B < 200 misses on every access.
  auto trace = RoundRobinTrace(200, 5);
  auto stats = RunLruFit(trace, 200, 100, "roundrobin");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->f_min, trace.size());
  EXPECT_NEAR(stats->clustering, 0.0, 1e-12);
  // At B = T everything fits after the first round.
  EXPECT_NEAR(stats->FullScanFetches(200.0), 200.0, 1e-9);
}

TEST(LruFitTest, DefaultRangeFollowsPaper) {
  auto trace = ClusteredTrace(5000, 2);
  auto stats = RunLruFit(trace, 5000, 100, "x");
  ASSERT_TRUE(stats.ok());
  // B_min = max(0.01 * 5000, 12) = 50, B_max = T, and the curve spans it.
  EXPECT_EQ(stats->b_min, 50u);
  EXPECT_EQ(stats->b_max, 5000u);
  ASSERT_TRUE(stats->fpf.has_value());
  EXPECT_DOUBLE_EQ(stats->fpf->min_x(), 50.0);
  EXPECT_DOUBLE_EQ(stats->fpf->max_x(), 5000.0);

  auto small = RunLruFit(ClusteredTrace(100, 2), 100, 10, "y");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->b_min, 12u);  // 0.01 * 100 = 1 < B_sml = 12.

  // Online LRU-Fit models the same sizes. B_sml is capped at T on a table
  // smaller than 12 pages, and an empty table has no range.
  auto sizes = ModeledBufferSizes(5000, BufferSchedule::kPaperLinear);
  ASSERT_TRUE(sizes.ok());
  EXPECT_EQ(sizes->front(), 50u);
  EXPECT_EQ(sizes->back(), 5000u);
  auto tiny = ModeledBufferSizes(5, BufferSchedule::kPaperLinear);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(*tiny, std::vector<uint64_t>{5});
  EXPECT_EQ(ModeledBufferSizes(0, BufferSchedule::kPaperLinear)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(LruFitTest, SegmentCountBounded) {
  Rng rng(41);
  std::vector<PageId> trace;
  for (int i = 0; i < 20000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(1000)));
  }
  for (int segments : {1, 2, 3, 6, 10}) {
    LruFitOptions options;
    options.num_segments = segments;
    auto stats = RunLruFit(trace, 1000, 100, "x", options);
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->fpf.has_value());
    EXPECT_LE(stats->fpf->num_segments(),
              static_cast<size_t>(segments));
  }
}

TEST(LruFitTest, FitMatchesSimulatedFetchesAtSampledSizes) {
  // Moderately unclustered trace; the 6-segment fit should track the true
  // curve closely (within a few percent) at the sampled sizes.
  Rng rng(43);
  std::vector<PageId> trace;
  PageId page = 0;
  for (int i = 0; i < 30000; ++i) {
    if (rng.NextBernoulli(0.7)) {
      page = (page + 1) % 500;  // Mostly sequential.
    } else {
      page = static_cast<PageId>(rng.NextBounded(500));
    }
    trace.push_back(page);
  }
  auto stats = RunLruFit(trace, 500, 100, "x");
  ASSERT_TRUE(stats.ok());

  for (uint64_t b : {20ULL, 60ULL, 150ULL, 400ULL, 500ULL}) {
    uint64_t actual = CountLruFetches(trace, b);
    double fitted = stats->FullScanFetches(static_cast<double>(b));
    EXPECT_NEAR(fitted, static_cast<double>(actual),
                0.10 * static_cast<double>(actual) + 50.0)
        << "b=" << b;
  }
}

TEST(LruFitTest, ExtrapolationClampedToPhysicalBounds) {
  auto trace = RoundRobinTrace(100, 10);
  auto stats = RunLruFit(trace, 100, 10, "x");
  ASSERT_TRUE(stats.ok());
  // Below the modeled range F can never exceed N.
  EXPECT_LE(stats->FullScanFetches(1.0),
            static_cast<double>(trace.size()) + 1e-9);
  // Beyond T a full scan still reads every accessed page once.
  EXPECT_GE(stats->FullScanFetches(100000.0), 100.0 - 1e-9);
}

TEST(LruFitTest, GeometricScheduleAlsoFits) {
  LruFitOptions options;
  options.schedule = BufferSchedule::kGraefeGeometric;
  auto stats = RunLruFit(RoundRobinTrace(300, 4), 300, 30, "x", options);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->fpf.has_value());
}

TEST(LruFitTest, RejectsInvalidSampleRate) {
  for (double bad : {0.0, -0.5, 1.0000001, 2.0,
                     std::numeric_limits<double>::quiet_NaN()}) {
    LruFitOptions options;
    options.sample_rate = bad;
    auto stats = RunLruFit({1, 2, 3}, 10, 3, "x", options);
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument)
        << "rate=" << bad;
  }
}

TEST(LruFitTest, SampledRunRecordsProvenance) {
  Rng rng(53);
  std::vector<PageId> trace;
  for (int i = 0; i < 40'000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(2'000)));
  }
  LruFitOptions options;
  options.sample_rate = 0.1;
  auto stats = RunLruFit(trace, 2'000, 200, "sampled", options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Provenance: the effective rate lands on the quantized threshold near
  // the request, and the sampled-ref count is a ~10% subset.
  EXPECT_NEAR(stats->sample_rate, 0.1, 1e-6);
  EXPECT_GT(stats->sampled_refs, 0u);
  EXPECT_LT(stats->sampled_refs, trace.size() / 2);
  // N stays exact (the filter counts what it drops).
  EXPECT_EQ(stats->table_records, trace.size());
  // Estimates stay physical: A <= T, F_min <= N.
  EXPECT_LE(stats->pages_accessed, stats->table_pages);
  EXPECT_LE(stats->f_min, stats->table_records);
  EXPECT_GE(stats->clustering, 0.0);
  EXPECT_LE(stats->clustering, 1.0);

  // The sampled stats track the exact run's headline numbers closely on
  // this trace (deterministic hash — no flake).
  auto exact = RunLruFit(trace, 2'000, 200, "exact");
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->sample_rate, 1.0);
  EXPECT_EQ(exact->sampled_refs, trace.size());
  EXPECT_NEAR(stats->clustering, exact->clustering, 0.05);
  EXPECT_NEAR(static_cast<double>(stats->f_min),
              static_cast<double>(exact->f_min),
              0.05 * static_cast<double>(exact->f_min));
}

std::vector<PageId> UniformTrace(int refs, uint32_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  for (int i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(pages)));
  }
  return trace;
}

// Every stored number and knot of two fits, compared bit for bit.
void ExpectSameStats(const IndexStats& a, const IndexStats& b) {
  EXPECT_EQ(a.table_records, b.table_records);
  EXPECT_EQ(a.pages_accessed, b.pages_accessed);
  EXPECT_EQ(a.f_min, b.f_min);
  EXPECT_EQ(a.sampled_refs, b.sampled_refs);
  EXPECT_EQ(a.sample_rate, b.sample_rate);
  EXPECT_EQ(a.clustering, b.clustering);
  ASSERT_TRUE(a.fpf.has_value() && b.fpf.has_value());
  EXPECT_EQ(a.fpf->knots(), b.fpf->knots());
}

// A page target K at or above T gives rate min(1, K/T) = 1: the exact
// pass, bit for bit.
TEST(LruFitTest, PageTargetAtOrAboveTIsExact) {
  auto trace = UniformTrace(30'000, 3'000, 54);
  auto exact = RunLruFit(trace, 3'000, 300, "x");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  for (uint64_t k : {3'000u, 3'001u, 1'000'000u}) {
    LruFitOptions options;
    options.sample_max_pages = k;
    auto stats = RunLruFit(trace, 3'000, 300, "x", options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->sample_rate, 1.0) << "K=" << k;
    ExpectSameStats(*stats, *exact);
  }
}

// K < T runs the fixed-rate pass at R = K/T, and the entry records it.
TEST(LruFitTest, PageTargetBelowTSetsRateKOverT) {
  auto trace = UniformTrace(30'000, 3'000, 54);
  LruFitOptions options;
  options.sample_max_pages = 300;
  auto stats = RunLruFit(trace, 3'000, 300, "x", options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NEAR(stats->sample_rate, 0.1, 1.0 / kSampleModulus);
  EXPECT_LT(stats->sampled_refs, trace.size());
  EXPECT_EQ(stats->table_records, trace.size());
  EXPECT_LE(stats->pages_accessed, 3'000u);

  // The target only picks the rate: the fit equals a plain fixed-rate
  // run at K/T.
  LruFitOptions fixed_rate;
  fixed_rate.sample_rate = 0.1;
  auto same = RunLruFit(trace, 3'000, 300, "x", fixed_rate);
  ASSERT_TRUE(same.ok());
  ExpectSameStats(*stats, *same);
}

// With both options set the smaller rate wins, whichever it is.
TEST(LruFitTest, PageTargetAndRateUseTheSmaller) {
  EXPECT_DOUBLE_EQ(SampleRateForPages(0.5, 300, 3'000), 0.1);
  EXPECT_DOUBLE_EQ(SampleRateForPages(0.05, 300, 3'000), 0.05);
  EXPECT_DOUBLE_EQ(SampleRateForPages(0.5, 0, 3'000), 0.5);
  EXPECT_DOUBLE_EQ(SampleRateForPages(0.5, 3'000, 3'000), 0.5);

  auto trace = UniformTrace(30'000, 3'000, 55);
  for (double rate : {0.5, 0.05}) {
    LruFitOptions both;
    both.sample_rate = rate;
    both.sample_max_pages = 300;
    auto stats = RunLruFit(trace, 3'000, 300, "x", both);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    LruFitOptions smaller;
    smaller.sample_rate = std::min(rate, 0.1);
    auto expected = RunLruFit(trace, 3'000, 300, "x", smaller);
    ASSERT_TRUE(expected.ok());
    ExpectSameStats(*stats, *expected);
  }
}

TEST(SampleFpfCurveTest, MonotoneNonIncreasing) {
  Rng rng(47);
  std::vector<PageId> trace;
  for (int i = 0; i < 10000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(400)));
  }
  auto points = SampleFpfCurve(trace, 12, 400,
                               BufferSchedule::kPaperLinear);
  ASSERT_TRUE(points.ok());
  ASSERT_GE(points->size(), 3u);
  for (size_t i = 1; i < points->size(); ++i) {
    EXPECT_LE((*points)[i].fetches, (*points)[i - 1].fetches);
    EXPECT_GT((*points)[i].buffer_size, (*points)[i - 1].buffer_size);
  }
  // Every value agrees with the direct simulation.
  for (const FpfPoint& p : *points) {
    EXPECT_EQ(p.fetches, CountLruFetches(trace, p.buffer_size));
  }
}

TEST(SampleFpfCurveTest, EmptyTraceFails) {
  EXPECT_FALSE(
      SampleFpfCurve({}, 12, 100, BufferSchedule::kPaperLinear).ok());
}

}  // namespace
}  // namespace epfis
