#include "exec/optimizer.h"

#include <gtest/gtest.h>

#include <memory>

#include "epfis/lru_fit.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 6000;
    spec.num_distinct = 300;
    spec.records_per_page = 20;
    spec.window_fraction = 0.5;  // Unclustered enough to make scans costly.
    spec.seed = 61;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();

    ASSERT_TRUE(catalog_.RegisterTable("t", dataset_->table()).ok());
    ASSERT_TRUE(
        catalog_.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());

    auto trace = dataset_->FullIndexPageTrace();
    ASSERT_TRUE(trace.ok());
    auto stats = RunLruFit(*trace, dataset_->num_pages(),
                           dataset_->num_distinct(), "t.key");
    ASSERT_TRUE(stats.ok());
    catalog_.stats().Put(std::move(stats).value());
    ASSERT_TRUE(catalog_.stats().Publish().ok());
  }

  Query MakeQuery(double sigma) {
    Query query;
    query.table = "t";
    query.column = 0;
    query.sigma = sigma;
    int64_t hi = static_cast<int64_t>(sigma * 300);
    query.range = KeyRange::Closed(1, std::max<int64_t>(hi, 1));
    return query;
  }

  std::unique_ptr<Dataset> dataset_;
  Catalog catalog_;
};

TEST_F(OptimizerTest, EnumeratesTableScanPlusIndexes) {
  AccessPathOptimizer optimizer(&catalog_);
  auto plans = optimizer.EnumeratePlans(MakeQuery(0.5), 100);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 2u);  // Table scan + one relevant index.
  // Sorted by cost.
  EXPECT_LE((*plans)[0].total_cost, (*plans)[1].total_cost);
}

TEST_F(OptimizerTest, HighSelectivityPrefersIndexScan) {
  AccessPathOptimizer optimizer(&catalog_);
  auto plan = optimizer.Choose(MakeQuery(0.005), dataset_->num_pages());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->type, AccessPlan::Type::kIndexScan);
  EXPECT_EQ(plan->index_name, "t.key");
}

TEST_F(OptimizerTest, LowSelectivityUnclusteredPrefersTableScan) {
  AccessPathOptimizer optimizer(&catalog_);
  // Full selectivity on an unclustered index with a tiny buffer: the index
  // scan refetches massively; the table scan costs exactly T.
  auto plan = optimizer.Choose(MakeQuery(1.0), 12);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->type, AccessPlan::Type::kTableScan);
}

TEST_F(OptimizerTest, BufferSizeFlipsThePlan) {
  AccessPathOptimizer optimizer(&catalog_);
  Query query = MakeQuery(0.6);
  // Find whether there exists a pair of buffer sizes with different
  // winners: small buffer -> table scan, big buffer -> index scan.
  auto small = optimizer.Choose(query, 12);
  auto large = optimizer.Choose(query, dataset_->num_pages());
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(small->type, AccessPlan::Type::kTableScan);
  EXPECT_EQ(large->type, AccessPlan::Type::kIndexScan);
}

TEST_F(OptimizerTest, SortRequirementPenalizesTableScan) {
  AccessPathOptimizer optimizer(&catalog_);
  Query query = MakeQuery(0.9);
  query.require_sorted = true;
  auto plans = optimizer.EnumeratePlans(query, 50);
  ASSERT_TRUE(plans.ok());
  for (const AccessPlan& plan : *plans) {
    if (plan.type == AccessPlan::Type::kTableScan) {
      EXPECT_GT(plan.sort_cost, 0.0);
      EXPECT_DOUBLE_EQ(plan.total_cost,
                       plan.estimated_fetches + plan.sort_cost);
    } else {
      EXPECT_EQ(plan.sort_cost, 0.0);
    }
  }
}

TEST_F(OptimizerTest, UnknownTableFails) {
  AccessPathOptimizer optimizer(&catalog_);
  Query query = MakeQuery(0.5);
  query.table = "missing";
  EXPECT_FALSE(optimizer.Choose(query, 100).ok());
}

TEST_F(OptimizerTest, IndexWithoutStatsFails) {
  Catalog bare;
  ASSERT_TRUE(bare.RegisterTable("t", dataset_->table()).ok());
  ASSERT_TRUE(bare.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
  AccessPathOptimizer optimizer(&bare);
  EXPECT_FALSE(optimizer.Choose(MakeQuery(0.5), 100).ok());
}

TEST_F(OptimizerTest, PlanToStringMentionsTypeAndCost) {
  AccessPathOptimizer optimizer(&catalog_);
  auto plan = optimizer.Choose(MakeQuery(0.01), 500);
  ASSERT_TRUE(plan.ok());
  std::string s = plan->ToString();
  EXPECT_NE(s.find("IndexScan"), std::string::npos);
  EXPECT_NE(s.find("cost="), std::string::npos);
}

TEST_F(OptimizerTest, SargablePredicateLowersIndexCost) {
  AccessPathOptimizer optimizer(&catalog_);
  Query plain = MakeQuery(0.4);
  Query filtered = MakeQuery(0.4);
  filtered.sargable_selectivity = 0.05;
  auto p1 = optimizer.EnumeratePlans(plain, 200);
  auto p2 = optimizer.EnumeratePlans(filtered, 200);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  auto index_cost = [](const std::vector<AccessPlan>& plans) {
    for (const AccessPlan& p : plans) {
      if (p.type == AccessPlan::Type::kIndexScan) return p.total_cost;
    }
    return -1.0;
  };
  EXPECT_LT(index_cost(*p2), index_cost(*p1));
}

}  // namespace
}  // namespace epfis
