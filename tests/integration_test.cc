// End-to-end tests tying the whole pipeline together: data generation ->
// B-tree -> LRU-Fit -> catalog persistence -> Est-IO -> optimizer, checked
// against physically executed scans.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "buffer/stack_distance_kernel.h"
#include "catalog/catalog.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "exec/optimizer.h"
#include "exec/table_scan.h"
#include "harness/experiment.h"
#include "workload/data_gen.h"
#include "workload/scan_gen.h"

namespace epfis {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 24000;
    spec.num_distinct = 600;
    spec.records_per_page = 24;
    spec.window_fraction = 0.15;
    spec.seed = 81;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
  }

  std::unique_ptr<Dataset> dataset_;
};

TEST_F(IntegrationTest, EstimateTracksMeasuredFetchesAcrossBufferSizes) {
  // Statistics once...
  auto trace = dataset_->FullIndexPageTrace();
  ASSERT_TRUE(trace.ok());
  auto stats = RunLruFit(*trace, dataset_->num_pages(),
                         dataset_->num_distinct(), "idx");
  ASSERT_TRUE(stats.ok());

  // ...then estimates vs physical executions for several scans x buffers.
  ScanGenerator gen(dataset_.get(), 5);
  for (int i = 0; i < 6; ++i) {
    ScanRange scan = (i % 2 == 0) ? gen.Large() : gen.Small();
    KeyRange range = KeyRange::Closed(scan.lo_key, scan.hi_key);
    for (uint64_t b : {50ULL, 200ULL, 600ULL, 1000ULL}) {
      auto pool = dataset_->MakeDataPool(b);
      auto run = RunIndexScan(*dataset_->index(), *dataset_->table(),
                              pool.get(), range);
      ASSERT_TRUE(run.ok());
      double est =
          EstIo::Estimate(*stats, {scan.sigma, 1.0, b}).value();
      double actual = static_cast<double>(run->data_page_fetches);
      // Generous per-scan envelope: the paper's accuracy claim is about
      // the metric aggregated over 200 scans; individual small scans on
      // window-clustered data can be overestimated ~2x by the §4.2
      // correction term (see bench_ablation_phi). Require the estimate to
      // track within a small constant factor, never orders of magnitude.
      EXPECT_NEAR(est, actual, 2.0 * actual + 60.0)
          << "sigma=" << scan.sigma << " b=" << b;
    }
  }
}

TEST_F(IntegrationTest, CatalogPersistenceProducesIdenticalEstimates) {
  auto trace = dataset_->FullIndexPageTrace();
  ASSERT_TRUE(trace.ok());
  auto stats = RunLruFit(*trace, dataset_->num_pages(),
                         dataset_->num_distinct(), "idx");
  ASSERT_TRUE(stats.ok());

  StatsCatalog catalog;
  catalog.Put(*stats);
  std::string path = testing::TempDir() + "/epfis_integration.cat";
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  StatsCatalog restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  auto loaded = restored.Get("idx");
  ASSERT_TRUE(loaded.ok());

  for (double sigma : {0.01, 0.1, 0.5, 1.0}) {
    for (uint64_t b : {30ULL, 100ULL, 500ULL}) {
      EXPECT_DOUBLE_EQ(EstIo::Estimate(*stats, {sigma, 1.0, b}).value(),
                       EstIo::Estimate(*loaded, {sigma, 1.0, b}).value());
    }
  }
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, OptimizerChoiceAgreesWithMeasuredCosts) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", dataset_->table()).ok());
  ASSERT_TRUE(catalog.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
  auto trace = dataset_->FullIndexPageTrace();
  ASSERT_TRUE(trace.ok());
  auto stats = RunLruFit(*trace, dataset_->num_pages(),
                         dataset_->num_distinct(), "t.key");
  ASSERT_TRUE(stats.ok());
  catalog.stats().Put(std::move(stats).value());
  ASSERT_TRUE(catalog.stats().Publish().ok());

  AccessPathOptimizer optimizer(&catalog);

  // A very selective query with a decent buffer: optimizer must choose the
  // index, and the measured index cost must indeed beat the table scan.
  ScanGenerator gen(dataset_.get(), 17);
  ScanRange scan = gen.FromFraction(0.01);
  Query query;
  query.table = "t";
  query.column = 0;
  query.range = KeyRange::Closed(scan.lo_key, scan.hi_key);
  query.sigma = scan.sigma;
  uint64_t buffer = 400;

  auto plan = optimizer.Choose(query, buffer);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->type, AccessPlan::Type::kIndexScan);

  auto index_pool = dataset_->MakeDataPool(buffer);
  auto index_run = RunIndexScan(*dataset_->index(), *dataset_->table(),
                                index_pool.get(), query.range);
  ASSERT_TRUE(index_run.ok());
  auto table_pool = dataset_->MakeDataPool(buffer);
  auto table_run = RunTableScan(*dataset_->table(), table_pool.get(),
                                query.range, 0);
  ASSERT_TRUE(table_run.ok());
  EXPECT_LT(index_run->data_page_fetches, table_run->pages_fetched);
}

TEST_F(IntegrationTest, HarnessGroundTruthMatchesPhysicalExecution) {
  // The harness derives a_i(B) from one kernel pass over a slice of the
  // index entries; verify a few scans against real buffer-pool executions.
  auto entries = dataset_->IndexEntries();
  ASSERT_TRUE(entries.ok());
  ScanGenerator gen(dataset_.get(), 23);
  for (int i = 0; i < 4; ++i) {
    ScanRange scan = gen.Next(ScanMix::kMixed);
    KeyRange range = KeyRange::Closed(scan.lo_key, scan.hi_key);
    auto trace =
        SliceScanTrace(*dataset_, *entries, scan.lo_key, scan.hi_key);
    ASSERT_TRUE(trace.ok());
    StackDistanceKernel kernel(trace->size());
    kernel.AccessAll(*trace);
    for (uint64_t b : SweepBufferSizes(dataset_->num_pages(),
                                       PaperBufferFractions(), 40)) {
      auto pool = dataset_->MakeDataPool(b);
      auto run = RunIndexScan(*dataset_->index(), *dataset_->table(),
                              pool.get(), range);
      ASSERT_TRUE(run.ok());
      ASSERT_EQ(kernel.Fetches(b), run->data_page_fetches)
          << "scan " << i << " b=" << b;
    }
  }
}

TEST_F(IntegrationTest, FullScanEstimateMatchesMeasuredFullScan) {
  auto trace = dataset_->FullIndexPageTrace();
  ASSERT_TRUE(trace.ok());
  auto stats = RunLruFit(*trace, dataset_->num_pages(),
                         dataset_->num_distinct(), "idx");
  ASSERT_TRUE(stats.ok());

  for (uint64_t b : {stats->b_min, (stats->b_min + stats->b_max) / 2,
                     stats->b_max}) {
    auto pool = dataset_->MakeDataPool(b);
    auto run = RunIndexScan(*dataset_->index(), *dataset_->table(),
                            pool.get(), KeyRange::All());
    ASSERT_TRUE(run.ok());
    double est = stats->FullScanFetches(static_cast<double>(b));
    double actual = static_cast<double>(run->data_page_fetches);
    // The 6-segment fit tracks the measured curve within a few percent.
    EXPECT_NEAR(est, actual, 0.05 * actual + 20.0) << "b=" << b;
  }
}

}  // namespace
}  // namespace epfis
