#include "catalog/histogram.h"

#include <gtest/gtest.h>

#include <memory>

#include "catalog/catalog.h"
#include "epfis/lru_fit.h"
#include "exec/optimizer.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

TEST(HistogramTest, RejectsBadInput) {
  EXPECT_FALSE(EquiDepthHistogram::Build({1, 2, 3}, 0).ok());
  EXPECT_FALSE(EquiDepthHistogram::Build({}, 4).ok());
  EXPECT_FALSE(EquiDepthHistogram::Build({0, 0}, 4).ok());
}

TEST(HistogramTest, UniformCountsGiveBalancedBuckets) {
  std::vector<uint64_t> counts(100, 10);  // 1000 records, 100 keys.
  auto hist = EquiDepthHistogram::Build(counts, 10);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->total_records(), 1000u);
  ASSERT_EQ(hist->buckets().size(), 10u);
  for (const auto& bucket : hist->buckets()) {
    EXPECT_EQ(bucket.count, 100u);
    EXPECT_EQ(bucket.distinct, 10u);
  }
}

TEST(HistogramTest, BucketsPartitionTheDomain) {
  Rng rng(3);
  std::vector<uint64_t> counts(500);
  for (auto& c : counts) c = 1 + rng.NextBounded(50);
  auto hist = EquiDepthHistogram::Build(counts, 12);
  ASSERT_TRUE(hist.ok());
  uint64_t total = 0;
  int64_t prev_hi = 0;
  for (const auto& bucket : hist->buckets()) {
    EXPECT_GT(bucket.lo, prev_hi);
    EXPECT_LE(bucket.lo, bucket.hi);
    total += bucket.count;
    prev_hi = bucket.hi;
  }
  EXPECT_EQ(total, hist->total_records());
}

TEST(HistogramTest, ExactOnFullAndEmptyRanges) {
  std::vector<uint64_t> counts(100, 7);
  auto hist = EquiDepthHistogram::Build(counts, 8);
  ASSERT_TRUE(hist.ok());
  EXPECT_NEAR(hist->EstimateRecords(KeyRange::All()), 700.0, 1e-9);
  EXPECT_DOUBLE_EQ(hist->EstimateSelectivity(KeyRange::All()), 1.0);
  EXPECT_DOUBLE_EQ(hist->EstimateRecords(KeyRange::Closed(500, 600)), 0.0);
  EXPECT_DOUBLE_EQ(hist->EstimateRecords(KeyRange::Closed(50, 10)), 0.0);
}

TEST(HistogramTest, RangeEstimateCloseOnUniformData) {
  std::vector<uint64_t> counts(1000, 5);
  auto hist = EquiDepthHistogram::Build(counts, 20);
  ASSERT_TRUE(hist.ok());
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{1, 100},
                        {250, 300},
                        {990, 1000},
                        {37, 612}}) {
    double expected = 5.0 * static_cast<double>(hi - lo + 1);
    EXPECT_NEAR(hist->EstimateRecords(KeyRange::Closed(lo, hi)), expected,
                0.05 * expected + 6.0)
        << lo << ".." << hi;
  }
}

TEST(HistogramTest, SkewedDataStillBoundedError) {
  auto zipf = ZipfDistribution::Make(500, 0.86);
  ASSERT_TRUE(zipf.ok());
  std::vector<uint64_t> counts = zipf->ApportionCounts(50000);
  auto hist = EquiDepthHistogram::Build(counts, 25);
  ASSERT_TRUE(hist.ok());
  // Check several ranges against exact answers.
  auto exact = [&](int64_t lo, int64_t hi) {
    uint64_t total = 0;
    for (int64_t k = lo; k <= hi; ++k) total += counts[k - 1];
    return static_cast<double>(total);
  };
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{1, 10},
                        {1, 100},
                        {200, 400},
                        {450, 500}}) {
    double e = exact(lo, hi);
    double est = hist->EstimateRecords(KeyRange::Closed(lo, hi));
    // Equi-depth keeps heavy keys in narrow buckets: relative error on
    // ranges spanning at least one bucket stays modest.
    EXPECT_NEAR(est, e, 0.30 * e + 100.0) << lo << ".." << hi;
  }
}

TEST(HistogramOptimizerTest, EstimateSigmaDrivesPlanChoice) {
  SyntheticSpec spec;
  spec.num_records = 10000;
  spec.num_distinct = 200;
  spec.records_per_page = 20;
  spec.window_fraction = 0.4;
  spec.seed = 121;
  auto dataset = GenerateSynthetic(spec);
  ASSERT_TRUE(dataset.ok());

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", (*dataset)->table()).ok());
  ASSERT_TRUE(
      catalog.RegisterIndex("t.key", "t", 0, (*dataset)->index()).ok());
  auto trace = (*dataset)->FullIndexPageTrace().value();
  catalog.stats().Put(RunLruFit(trace, (*dataset)->num_pages(),
                                (*dataset)->num_distinct(), "t.key")
                          .value());
  ASSERT_TRUE(catalog.stats().Publish().ok());
  auto hist = EquiDepthHistogram::Build((*dataset)->key_counts(), 20);
  ASSERT_TRUE(hist.ok());
  ASSERT_TRUE(catalog.PutHistogram("t.key", *hist).ok());

  AccessPathOptimizer optimizer(&catalog);
  Query query;
  query.table = "t";
  query.column = 0;
  query.estimate_sigma = true;

  // Narrow range: histogram should yield a small sigma -> index plan.
  query.range = KeyRange::Closed(1, 2);
  auto narrow = optimizer.Choose(query, 100);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->type, AccessPlan::Type::kIndexScan);

  // Whole domain: sigma ~= 1 on unclustered data with tiny buffer ->
  // table scan.
  query.range = KeyRange::All();
  auto wide = optimizer.Choose(query, 12);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->type, AccessPlan::Type::kTableScan);

  // Histogram sigma close to truth for a mid-size range.
  query.range = KeyRange::Closed(10, 60);
  double est_sigma = hist->EstimateSelectivity(query.range);
  double true_sigma =
      static_cast<double>((*dataset)->RecordsInRange(10, 60)) / 10000.0;
  EXPECT_NEAR(est_sigma, true_sigma, 0.15 * true_sigma + 0.01);
}

TEST(HistogramOptimizerTest, EstimateSigmaWithoutHistogramFails) {
  SyntheticSpec spec;
  spec.num_records = 2000;
  spec.num_distinct = 50;
  spec.records_per_page = 20;
  spec.seed = 5;
  auto dataset = GenerateSynthetic(spec);
  ASSERT_TRUE(dataset.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", (*dataset)->table()).ok());
  ASSERT_TRUE(
      catalog.RegisterIndex("t.key", "t", 0, (*dataset)->index()).ok());
  auto trace = (*dataset)->FullIndexPageTrace().value();
  catalog.stats().Put(RunLruFit(trace, (*dataset)->num_pages(),
                                (*dataset)->num_distinct(), "t.key")
                          .value());
  ASSERT_TRUE(catalog.stats().Publish().ok());
  AccessPathOptimizer optimizer(&catalog);
  Query query;
  query.table = "t";
  query.column = 0;
  query.estimate_sigma = true;
  query.range = KeyRange::Closed(1, 5);
  EXPECT_FALSE(optimizer.Choose(query, 50).ok());
}

TEST(HistogramCatalogTest, PutRequiresRegisteredIndex) {
  Catalog catalog;
  auto hist = EquiDepthHistogram::Build({5, 5}, 1);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(catalog.PutHistogram("ghost", *hist).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace epfis
