// §2 plan shape 3: ordering by a column other than the predicate column —
// the optimizer must consider a full scan of an index on the ORDER BY
// column against "scan + sort" alternatives.

#include <gtest/gtest.h>

#include <memory>

#include "epfis/lru_fit.h"
#include "exec/optimizer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

class OptimizerOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 10000;
    spec.num_distinct = 200;       // Column 0: predicate column.
    spec.secondary_distinct = 50;  // Column 1: ORDER BY column.
    spec.records_per_page = 20;
    spec.window_fraction = 0.2;
    spec.seed = 181;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();

    ASSERT_TRUE(catalog_.RegisterTable("t", dataset_->table()).ok());
    ASSERT_TRUE(
        catalog_.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
    ASSERT_TRUE(
        catalog_.RegisterIndex("t.key2", "t", 1, dataset_->index2()).ok());

    auto trace1 = dataset_->FullIndexPageTrace().value();
    catalog_.stats().Put(RunLruFit(trace1, dataset_->num_pages(),
                                   dataset_->num_distinct(), "t.key")
                             .value());
    // Statistics for the secondary index from its own entry order.
    std::vector<PageId> trace2;
    auto it = dataset_->index2()->Begin().value();
    while (it.Valid()) {
      trace2.push_back(it.entry().rid.page_id);
      ASSERT_TRUE(it.Next().ok());
    }
    catalog_.stats().Put(RunLruFit(trace2, dataset_->num_pages(),
                                   dataset_->num_secondary_distinct(),
                                   "t.key2")
                             .value());
    ASSERT_TRUE(catalog_.stats().Publish().ok());
  }

  std::unique_ptr<Dataset> dataset_;
  Catalog catalog_;
};

TEST_F(OptimizerOrderTest, OrderByOtherColumnAddsFullScanPlan) {
  AccessPathOptimizer optimizer(&catalog_);
  Query query;
  query.table = "t";
  query.column = 0;
  query.range = KeyRange::Closed(1, 100);
  query.sigma = 0.5;
  query.require_sorted = true;
  query.order_column = 1;

  auto plans = optimizer.EnumeratePlans(query, 200);
  ASSERT_TRUE(plans.ok());
  // Table scan + index scan on t.key + full scan on t.key2.
  ASSERT_EQ(plans->size(), 3u);
  bool found_order_index = false;
  for (const AccessPlan& plan : *plans) {
    if (plan.type == AccessPlan::Type::kIndexScan &&
        plan.index_name == "t.key2") {
      found_order_index = true;
      EXPECT_EQ(plan.sort_cost, 0.0);  // Delivers the order directly.
    }
    if (plan.type == AccessPlan::Type::kIndexScan &&
        plan.index_name == "t.key") {
      EXPECT_GT(plan.sort_cost, 0.0);  // Wrong order: must sort.
    }
    if (plan.type == AccessPlan::Type::kTableScan) {
      EXPECT_GT(plan.sort_cost, 0.0);
    }
  }
  EXPECT_TRUE(found_order_index);
}

TEST_F(OptimizerOrderTest, NoExtraPlanWhenOrderMatchesPredicateColumn) {
  AccessPathOptimizer optimizer(&catalog_);
  Query query;
  query.table = "t";
  query.column = 0;
  query.range = KeyRange::Closed(1, 100);
  query.sigma = 0.5;
  query.require_sorted = true;
  query.order_column = 0;  // Same column.

  auto plans = optimizer.EnumeratePlans(query, 200);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 2u);
  for (const AccessPlan& plan : *plans) {
    if (plan.type == AccessPlan::Type::kIndexScan) {
      EXPECT_EQ(plan.sort_cost, 0.0);
    }
  }
}

TEST_F(OptimizerOrderTest, SelectivePredicateStillBeatsOrderIndex) {
  // With a very selective predicate, scanning t.key and sorting its tiny
  // output beats reading everything in t.key2 order.
  AccessPathOptimizer optimizer(&catalog_);
  Query query;
  query.table = "t";
  query.column = 0;
  query.range = KeyRange::Closed(1, 2);
  query.sigma = 0.005;
  query.require_sorted = true;
  query.order_column = 1;

  auto plan = optimizer.Choose(query, 300);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->type, AccessPlan::Type::kIndexScan);
  EXPECT_EQ(plan->index_name, "t.key");
}

TEST_F(OptimizerOrderTest, UnselectivePredicatePrefersOrderIndex) {
  // Reading the whole table anyway: avoid the sort by scanning in order,
  // given a buffer big enough that the full index scan doesn't thrash.
  AccessPathOptimizer optimizer(&catalog_);
  Query query;
  query.table = "t";
  query.column = 0;
  query.range = KeyRange::All();
  query.sigma = 1.0;
  query.require_sorted = true;
  query.order_column = 1;

  auto plan = optimizer.Choose(query, dataset_->num_pages());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->type, AccessPlan::Type::kIndexScan);
  EXPECT_EQ(plan->index_name, "t.key2");
}

}  // namespace
}  // namespace epfis
