// Parameterized property sweeps over Est-IO: invariants that must hold for
// every (clustering, sigma, buffer, sargable-S) combination.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "epfis/est_io.h"

namespace epfis {
namespace {

IndexStats StatsWithClustering(double c) {
  IndexStats stats;
  stats.index_name = "prop";
  stats.table_pages = 2000;
  stats.table_records = 80000;
  stats.distinct_keys = 4000;
  stats.pages_accessed = 2000;
  stats.b_min = 20;
  stats.b_max = 2000;
  stats.clustering = c;
  // FPF curve shape interpolating between the clustered floor (T) and the
  // unclustered ceiling (N) according to C: a plausible family.
  double f_min = 2000 + (1.0 - c) * (80000 - 2000);
  stats.f_min = static_cast<uint64_t>(f_min);
  stats.fpf = PiecewiseLinear::FromKnots(
                  {{20, f_min},
                   {200, 2000 + 0.55 * (f_min - 2000)},
                   {700, 2000 + 0.18 * (f_min - 2000)},
                   {2000, 2000}})
                  .value();
  return stats;
}

double Estimate(const IndexStats& stats, const ScanSpec& scan,
                const EstIoOptions& options = {}) {
  return EstIo::Estimate(stats, scan, options).value();
}

class EstIoPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EstIoPropertyTest, EstimateWithinPhysicalBounds) {
  auto [c, s_sargable] = GetParam();
  IndexStats stats = StatsWithClustering(c);
  for (double sigma :
       {0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.34, 0.5, 0.8, 1.0}) {
    for (uint64_t b : {1ULL, 20ULL, 100ULL, 500ULL, 2000ULL, 5000ULL}) {
      double est = Estimate(stats, {sigma, s_sargable, b});
      ASSERT_TRUE(std::isfinite(est));
      ASSERT_GE(est, 0.0);
      // Never more than one fetch per qualifying record.
      ASSERT_LE(est, sigma * s_sargable * 80000.0 + 1e-9)
          << "c=" << c << " sigma=" << sigma << " b=" << b;
    }
  }
}

TEST_P(EstIoPropertyTest, MonotoneInSargableSelectivity) {
  auto [c, unused] = GetParam();
  (void)unused;
  IndexStats stats = StatsWithClustering(c);
  for (double sigma : {0.05, 0.3, 1.0}) {
    for (uint64_t b : {50ULL, 800ULL}) {
      double prev = -1.0;
      for (double s : {0.01, 0.1, 0.3, 0.6, 1.0}) {
        double est = Estimate(stats, {sigma, s, b});
        ASSERT_GE(est, prev - 1e-9)
            << "c=" << c << " sigma=" << sigma << " b=" << b << " s=" << s;
        prev = est;
      }
    }
  }
}

TEST_P(EstIoPropertyTest, MonotoneInSigmaWhenCorrectionDisabled) {
  auto [c, s_sargable] = GetParam();
  IndexStats stats = StatsWithClustering(c);
  EstIoOptions options;
  options.enable_correction = false;
  for (uint64_t b : {20ULL, 400ULL, 2000ULL}) {
    double prev = -1.0;
    for (double sigma : {0.01, 0.05, 0.1, 0.3, 0.6, 1.0}) {
      double est = Estimate(stats, {sigma, s_sargable, b}, options);
      ASSERT_GE(est, prev - 1e-9) << "b=" << b << " sigma=" << sigma;
      prev = est;
    }
  }
}

TEST_P(EstIoPropertyTest, FullScanNonIncreasingInBuffer) {
  auto [c, s_sargable] = GetParam();
  (void)s_sargable;
  IndexStats stats = StatsWithClustering(c);
  double prev = 1e300;
  for (uint64_t b = 20; b <= 2400; b += 20) {
    double est = stats.FullScanFetches(static_cast<double>(b));
    ASSERT_LE(est, prev + 1e-9) << "b=" << b;
    prev = est;
  }
}

// LRU inclusion: a larger buffer never fetches more pages. Up to B = T the
// printed phi = max(1, B/T) is 1, so only PF_B moves with B, and a partial
// scan's estimate must never rise.
TEST_P(EstIoPropertyTest, PartialScanNonIncreasingInBufferUpToT) {
  auto [c, s_sargable] = GetParam();
  IndexStats stats = StatsWithClustering(c);
  for (double sigma :
       {0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.34, 0.5, 0.8, 1.0}) {
    double prev = Estimate(stats, {sigma, s_sargable, 1});
    for (uint64_t b = 2; b <= stats.table_pages; ++b) {
      double est = Estimate(stats, {sigma, s_sargable, b});
      ASSERT_LE(est, prev) << "c=" << c << " sigma=" << sigma << " b=" << b;
      prev = est;
    }
  }
}

TEST_P(EstIoPropertyTest, MoreClusteredNeverCostsMore) {
  auto [c, s_sargable] = GetParam();
  if (c >= 0.99) return;  // Need headroom for the comparison.
  // Holds only without sargable predicates: the urn factor deliberately
  // reduces *unclustered* scans more (records spread over more pages means
  // a dropped record more often skips a whole page), which can invert the
  // ordering. With S = 1 the property is exact.
  if (s_sargable < 1.0) return;
  IndexStats less = StatsWithClustering(c);
  IndexStats more = StatsWithClustering(std::min(1.0, c + 0.3));
  for (double sigma : {0.02, 0.1, 0.5, 1.0}) {
    for (uint64_t b : {20ULL, 200ULL, 2000ULL}) {
      double est_less = Estimate(less, {sigma, s_sargable, b});
      double est_more = Estimate(more, {sigma, s_sargable, b});
      ASSERT_LE(est_more, est_less + 1e-9)
          << "c=" << c << " sigma=" << sigma << " b=" << b;
    }
  }
}

// The known defect above B = T (ROADMAP, calibration item): phi = B/T
// grows with B there, and nu switches the Cardenas term on once
// B/T >= 3 sigma, so one more buffer step doubles the estimate. Pinned so
// that the fix to nu has to flip the last assertion on purpose.
TEST(EstIoBufferDefectTest, EstimateRisesAboveTWhereNuSwitchesOn) {
  IndexStats stats = StatsWithClustering(0.0);  // T = 2000, N = 80000.
  double below = Estimate(stats, {0.5, 1.0, 2980});  // B/T = 1.49: nu = 0.
  double above = Estimate(stats, {0.5, 1.0, 3000});  // B/T = 1.50: nu = 1.
  EXPECT_EQ(below, 1000.0);  // sigma * PF_B = 0.5 * 2000.
  // + min(1, 1.5 / 3) * Cardenas(2000, 40000), which is 2000 to 1e-5.
  EXPECT_NEAR(above, 2000.0, 1e-3);
  EXPECT_GT(above, below);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstIoPropertyTest,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(0.05, 0.5, 1.0)));

}  // namespace
}  // namespace epfis
