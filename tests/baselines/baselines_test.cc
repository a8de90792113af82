#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/dc.h"
#include "baselines/estimator.h"
#include "baselines/ml.h"
#include "baselines/ot.h"
#include "baselines/sd.h"
#include "util/formulas.h"

namespace epfis {
namespace {

// An index entry reduced to what the baselines read: a key and the data
// page its record lives on.
IndexEntry Ref(int64_t key, PageId page) {
  return IndexEntry{key, Rid{page, 0}};
}

// A perfectly clustered index: key i on page i/10, 10 records per key
// sequence page.
std::vector<IndexEntry> ClusteredRefs(int pages, int per_page) {
  std::vector<IndexEntry> refs;
  int64_t key = 0;
  for (int p = 0; p < pages; ++p) {
    for (int r = 0; r < per_page; ++r) {
      refs.push_back(Ref(key++, static_cast<PageId>(p)));
    }
  }
  return refs;
}

// A worst-case unclustered index: consecutive keys alternate pages far
// apart, so every reference jumps.
std::vector<IndexEntry> AlternatingRefs(int pages, int rounds) {
  std::vector<IndexEntry> refs;
  int64_t key = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < pages; ++p) {
      refs.push_back(Ref(key++, static_cast<PageId>(p)));
    }
  }
  return refs;
}

TEST(CollectBaselineStatsTest, RejectsEmptyAndUnsorted) {
  EXPECT_FALSE(CollectBaselineTraceStats({}, 10).ok());
  std::vector<IndexEntry> bad = {Ref(5, 0), Ref(3, 1)};
  EXPECT_FALSE(CollectBaselineTraceStats(bad, 10).ok());
}

TEST(CollectBaselineStatsTest, CountsBasics) {
  auto refs = ClusteredRefs(10, 10);
  auto stats = CollectBaselineTraceStats(refs, 10);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->table_pages, 10u);
  EXPECT_EQ(stats->table_records, 100u);
  EXPECT_EQ(stats->distinct_keys, 100u);
  // Clustered: J1 == T (each page fetched once even with 1 buffer).
  EXPECT_EQ(stats->j1, 10u);
  EXPECT_EQ(stats->j3, 10u);
  // Every key's first page >= previous key's last page.
  EXPECT_EQ(stats->cluster_counter, 100u);
}

TEST(CollectBaselineStatsTest, AlternatingWorstCase) {
  auto refs = AlternatingRefs(10, 10);
  auto stats = CollectBaselineTraceStats(refs, 10);
  ASSERT_TRUE(stats.ok());
  // Round-robin over 10 pages: B=1 and B=3 both miss everywhere.
  EXPECT_EQ(stats->j1, 100u);
  EXPECT_EQ(stats->j3, 100u);
}

TEST(CollectBaselineStatsTest, DuplicateKeysGroupedForCc) {
  // Two keys: key 0 ends on page 5, key 1 starts on page 2 (< 5, no CC
  // increment), so CC = 1 (only the first key counts).
  std::vector<IndexEntry> refs = {Ref(0, 1), Ref(0, 5), Ref(1, 2),
                                 Ref(1, 9)};
  auto stats = CollectBaselineTraceStats(refs, 10);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->distinct_keys, 2u);
  EXPECT_EQ(stats->cluster_counter, 1u);
}

TEST(MlTest, FullBufferNoRefetches) {
  MlEstimator ml(100, 10000, 500);
  // With B >= T the model caps at T * (1 - q^x).
  double est = ml.Estimate({1.0, 100});
  EXPECT_LE(est, 100.0 + 1e-9);
  EXPECT_GT(est, 95.0);  // Nearly every page touched on a full scan.
}

TEST(MlTest, MatchesHandComputedFormula) {
  uint64_t t = 100, n = 10000, i = 500;
  MlEstimator ml(t, n, i);
  double d = static_cast<double>(n) / i;  // 20
  double r = static_cast<double>(n) / t;  // 100 -> exponent = min = 20
  ASSERT_LT(d, r);
  double q = std::pow(1.0 - 1.0 / t, d);
  double x = 10;  // Few key values: x <= n region for a large buffer.
  double expected = t * (1.0 - std::pow(q, x));
  EXPECT_NEAR(ml.PagesForKeyValues(x, t), expected, 1e-9);
}

TEST(MlTest, LinearTailBeyondBufferKnee) {
  uint64_t t = 1000, n = 100000, i = 1000;
  MlEstimator ml(t, n, i);
  double b = 100;  // Small buffer: knee n well below I.
  // Beyond the knee the curve is linear in x: check equal increments.
  double f1 = ml.PagesForKeyValues(600, b);
  double f2 = ml.PagesForKeyValues(700, b);
  double f3 = ml.PagesForKeyValues(800, b);
  EXPECT_NEAR(f2 - f1, f3 - f2, 1e-6);
  EXPECT_GT(f2, f1);
}

TEST(MlTest, MonotoneInSelectivityAndBuffer) {
  MlEstimator ml(500, 50000, 2000);
  double prev = -1;
  for (double sigma : {0.01, 0.05, 0.2, 0.5, 1.0}) {
    double est = ml.Estimate({sigma, 50});
    EXPECT_GE(est, prev);
    prev = est;
  }
  // Larger buffer never increases the estimate.
  for (double sigma : {0.1, 0.9}) {
    EXPECT_GE(ml.Estimate({sigma, 10}), ml.Estimate({sigma, 400}) - 1e-9);
  }
}

TEST(MlTest, ZeroSelectivityZeroPages) {
  MlEstimator ml(100, 1000, 100);
  EXPECT_EQ(ml.Estimate({0.0, 10}), 0.0);
}

TEST(DcTest, PerfectlyClusteredEstimatesSigmaT) {
  auto stats = CollectBaselineTraceStats(ClusteredRefs(100, 10), 100);
  ASSERT_TRUE(stats.ok());
  DcEstimator dc(*stats);
  // CC/I = 1 and the log term is positive (T > I would be needed)...
  // here T=100 < I=1000 so ln is negative; CR < 1 as printed.
  EXPECT_LE(dc.cluster_ratio(), 1.0);
  double est = dc.Estimate({0.5, 50});
  EXPECT_GT(est, 0.0);
}

TEST(DcTest, ClusterRatioCappedAtOne) {
  // T >> I makes the log term large; CR must cap at 1, estimate = sigma*T.
  std::vector<IndexEntry> refs;
  for (int p = 0; p < 100; ++p) {
    refs.push_back(Ref(p / 20, static_cast<PageId>(p)));
  }
  auto stats = CollectBaselineTraceStats(refs, 100);
  ASSERT_TRUE(stats.ok());
  DcEstimator dc(*stats);
  EXPECT_DOUBLE_EQ(dc.cluster_ratio(), 1.0);
  EXPECT_NEAR(dc.Estimate({0.3, 10}), 0.3 * 100.0, 1e-9);
}

TEST(SdTest, ClusteredIndexEstimatesSigmaT) {
  auto stats = CollectBaselineTraceStats(ClusteredRefs(100, 10), 100);
  ASSERT_TRUE(stats.ok());
  SdEstimator sd(*stats);
  EXPECT_DOUBLE_EQ(sd.cluster_ratio(), 1.0);  // J1 == T.
  EXPECT_NEAR(sd.Estimate({0.4, 50}), 0.4 * 100.0, 1e-9);
}

TEST(SdTest, UnclusteredUsesCardenasTerm) {
  auto stats = CollectBaselineTraceStats(AlternatingRefs(100, 10), 100);
  ASSERT_TRUE(stats.ok());
  SdEstimator sd(*stats);
  EXPECT_DOUBLE_EQ(sd.cluster_ratio(), 0.0);  // J1 == N.
  double sigma = 0.5;
  double i = 1000;
  double u = sigma * i * CardenasPages(100.0, 100.0 / i);
  EXPECT_NEAR(sd.Estimate({sigma, 50}), u, 1e-9);
}

TEST(SdTest, BufferLargerThanTableCapsAtT) {
  auto stats = CollectBaselineTraceStats(AlternatingRefs(10, 100), 10);
  ASSERT_TRUE(stats.ok());
  SdEstimator sd(*stats);
  double capped = sd.Estimate({1.0, 50});   // B > T: V = min(U, T).
  double uncapped = sd.Estimate({1.0, 5});  // B <= T: V = U.
  EXPECT_LE(capped, 10.0 + 1e-9);
  EXPECT_GE(uncapped, capped);
}

TEST(OtTest, ClusteredIndexCrIsOne) {
  auto stats = CollectBaselineTraceStats(ClusteredRefs(100, 10), 100);
  ASSERT_TRUE(stats.ok());
  OtEstimator ot(*stats);
  // CR = (N + T - J3)/N = (1000 + 100 - 100)/1000 = 1.
  EXPECT_DOUBLE_EQ(ot.cluster_ratio(), 1.0);
  EXPECT_NEAR(ot.Estimate({0.25, 10}), 0.25 * 100.0, 1e-9);
}

TEST(OtTest, UnclusteredCrIsTOverN) {
  auto stats = CollectBaselineTraceStats(AlternatingRefs(100, 10), 100);
  ASSERT_TRUE(stats.ok());
  OtEstimator ot(*stats);
  // J3 == N: CR = T/N = 0.1; estimate = sigma*(T + 0.9*(N - T)).
  EXPECT_DOUBLE_EQ(ot.cluster_ratio(), 0.1);
  EXPECT_NEAR(ot.Estimate({1.0, 10}), 100.0 + 0.9 * 900.0, 1e-9);
}

}  // namespace
}  // namespace epfis
