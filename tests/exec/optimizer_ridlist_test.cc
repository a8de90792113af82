#include <gtest/gtest.h>

#include <memory>

#include "epfis/lru_fit.h"
#include "exec/optimizer.h"
#include "exec/rid_list.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

class OptimizerRidListTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 8000;
    spec.num_distinct = 200;
    spec.records_per_page = 20;
    spec.window_fraction = 0.8;  // Unclustered: RID sort should shine.
    spec.seed = 111;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();

    ASSERT_TRUE(catalog_.RegisterTable("t", dataset_->table()).ok());
    ASSERT_TRUE(
        catalog_.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
    auto trace = dataset_->FullIndexPageTrace().value();
    catalog_.stats().Put(RunLruFit(trace, dataset_->num_pages(),
                                   dataset_->num_distinct(), "t.key")
                             .value());
    ASSERT_TRUE(catalog_.stats().Publish().ok());
  }

  Query MakeQuery(double sigma) {
    Query query;
    query.table = "t";
    query.column = 0;
    query.sigma = sigma;
    query.range = KeyRange::Closed(
        1, std::max<int64_t>(static_cast<int64_t>(sigma * 200), 1));
    return query;
  }

  std::unique_ptr<Dataset> dataset_;
  Catalog catalog_;
};

TEST_F(OptimizerRidListTest, DisabledByDefaultPerPaperSection2) {
  AccessPathOptimizer optimizer(&catalog_);
  auto plans = optimizer.EnumeratePlans(MakeQuery(0.3), 40);
  ASSERT_TRUE(plans.ok());
  for (const AccessPlan& plan : *plans) {
    EXPECT_NE(plan.type, AccessPlan::Type::kRidListFetch);
  }
}

TEST_F(OptimizerRidListTest, EnabledAddsOnePlanPerIndex) {
  OptimizerOptions options;
  options.consider_rid_list = true;
  AccessPathOptimizer optimizer(&catalog_, options);
  auto plans = optimizer.EnumeratePlans(MakeQuery(0.3), 40);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 3u);  // Table scan + index scan + rid fetch.
  int rid_plans = 0;
  for (const AccessPlan& plan : *plans) {
    if (plan.type == AccessPlan::Type::kRidListFetch) {
      ++rid_plans;
      EXPECT_EQ(plan.index_name, "t.key");
      EXPECT_GT(plan.estimated_fetches, 0.0);
    }
  }
  EXPECT_EQ(rid_plans, 1);
}

TEST_F(OptimizerRidListTest, RidPlanWinsOnUnclusteredSmallBuffer) {
  // Unclustered data + tiny buffer: an ordered index scan refetches
  // heavily, the table scan reads all T pages, the RID sort reads only the
  // distinct pages of the qualifying records.
  OptimizerOptions options;
  options.consider_rid_list = true;
  AccessPathOptimizer optimizer(&catalog_, options);
  auto plan = optimizer.Choose(MakeQuery(0.10), 8);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->type, AccessPlan::Type::kRidListFetch);

  // And its estimate is trustworthy: compare to an actual execution.
  Query query = MakeQuery(0.10);
  RidList list =
      RidList::FromIndexRange(*dataset_->index(), query.range).value();
  auto pool = dataset_->MakeDataPool(8);
  auto fetch = FetchRidList(*dataset_->table(), pool.get(), list).value();
  EXPECT_NEAR(plan->estimated_fetches,
              static_cast<double>(fetch.data_page_fetches),
              0.3 * static_cast<double>(fetch.data_page_fetches) + 10.0);
}

TEST_F(OptimizerRidListTest, SortRequirementPenalizesRidPlan) {
  OptimizerOptions options;
  options.consider_rid_list = true;
  AccessPathOptimizer optimizer(&catalog_, options);
  Query query = MakeQuery(0.10);
  query.require_sorted = true;
  auto plans = optimizer.EnumeratePlans(query, 8);
  ASSERT_TRUE(plans.ok());
  for (const AccessPlan& plan : *plans) {
    if (plan.type == AccessPlan::Type::kRidListFetch) {
      EXPECT_GT(plan.sort_cost, 0.0);
    }
    if (plan.type == AccessPlan::Type::kIndexScan) {
      EXPECT_EQ(plan.sort_cost, 0.0);  // Index delivers the order.
    }
  }
}

TEST_F(OptimizerRidListTest, ToStringNamesRidPlan) {
  OptimizerOptions options;
  options.consider_rid_list = true;
  AccessPathOptimizer optimizer(&catalog_, options);
  auto plans = optimizer.EnumeratePlans(MakeQuery(0.2), 8);
  ASSERT_TRUE(plans.ok());
  bool found = false;
  for (const AccessPlan& plan : *plans) {
    if (plan.type == AccessPlan::Type::kRidListFetch) {
      EXPECT_NE(plan.ToString().find("RidListFetch"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace epfis
