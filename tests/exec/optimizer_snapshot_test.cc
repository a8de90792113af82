// Planning against the published catalog snapshot (optimizer.h): what a
// plan can see, how its failures read, and that Choose picks exactly
// EnumeratePlans' front with every index estimate bit-identical to
// EstIo::Estimate. The concurrent test runs under TSan in CI (the
// Optimizer regex): readers plan while a publisher swaps statistics.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "exec/optimizer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

IndexStats Renamed(IndexStats stats, const std::string& name) {
  stats.index_name = name;
  return stats;
}

class OptimizerSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeDataset(0.3);
    ASSERT_NE(dataset_, nullptr);
    ASSERT_TRUE(catalog_.RegisterTable("t", dataset_->table()).ok());
    auto trace = dataset_->FullIndexPageTrace();
    ASSERT_TRUE(trace.ok());
    auto stats = RunLruFit(*trace, dataset_->num_pages(),
                           dataset_->num_distinct(), "t.key");
    ASSERT_TRUE(stats.ok());
    key_stats_ = std::move(stats).value();
  }

  // T = 500 pages, N = 10,000 records; column 1 carries a secondary key.
  static std::unique_ptr<Dataset> MakeDataset(double window_fraction) {
    SyntheticSpec spec;
    spec.num_records = 10000;
    spec.num_distinct = 200;
    spec.secondary_distinct = 50;
    spec.records_per_page = 20;
    spec.window_fraction = window_fraction;
    spec.seed = 141;
    auto dataset = GenerateSynthetic(spec);
    return dataset.ok() ? std::move(dataset).value() : nullptr;
  }

  void RegisterKeyIndex() {
    ASSERT_TRUE(
        catalog_.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
  }

  static Query MakeQuery(double sigma) {
    Query query;
    query.table = "t";
    query.column = 0;
    query.sigma = sigma;
    query.range = KeyRange::Closed(1, 10);
    return query;
  }

  // The index-scan plan on `name` among all enumerated plans.
  std::optional<AccessPlan> IndexPlan(const AccessPathOptimizer& optimizer,
                                      const Query& query, uint64_t buffer,
                                      const std::string& name) {
    auto plans = optimizer.EnumeratePlans(query, buffer);
    EXPECT_TRUE(plans.ok()) << plans.status().ToString();
    if (!plans.ok()) return std::nullopt;
    for (const AccessPlan& plan : *plans) {
      if (plan.type == AccessPlan::Type::kIndexScan &&
          plan.index_name == name) {
        return plan;
      }
    }
    return std::nullopt;
  }

  std::unique_ptr<Dataset> dataset_;
  Catalog catalog_;
  IndexStats key_stats_;
};

TEST_F(OptimizerSnapshotTest, PutWithoutPublishIsInvisible) {
  RegisterKeyIndex();
  catalog_.stats().Put(key_stats_);
  AccessPathOptimizer optimizer(&catalog_);
  Query query = MakeQuery(0.01);
  EXPECT_EQ(optimizer.Choose(query, 100).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(optimizer.EnumeratePlans(query, 100).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(catalog_.stats().Publish().ok());
  auto plan = optimizer.Choose(query, 100);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->type, AccessPlan::Type::kIndexScan);
  EXPECT_EQ(plan->index_name, "t.key");
  EXPECT_TRUE(BitEqual(plan->estimated_fetches,
                       *EstIo::Estimate(key_stats_, {0.01, 1.0, 100})));
}

TEST_F(OptimizerSnapshotTest, LaterPutWithoutPublishKeepsPublishedNumbers) {
  RegisterKeyIndex();
  catalog_.stats().Put(key_stats_);
  ASSERT_TRUE(catalog_.stats().Publish().ok());

  // A refit of a differently clustered table of the same shape.
  std::unique_ptr<Dataset> other = MakeDataset(0.9);
  ASSERT_NE(other, nullptr);
  ASSERT_EQ(other->num_pages(), dataset_->num_pages());
  auto trace = other->FullIndexPageTrace();
  ASSERT_TRUE(trace.ok());
  auto refit = RunLruFit(*trace, other->num_pages(), other->num_distinct(),
                         "t.key");
  ASSERT_TRUE(refit.ok());

  ScanSpec scan{1.0, 1.0, 100};
  double published = *EstIo::Estimate(key_stats_, scan);
  double refitted = *EstIo::Estimate(*refit, scan);
  ASSERT_NE(published, refitted);

  catalog_.stats().Put(*refit);
  AccessPathOptimizer optimizer(&catalog_);
  auto before = IndexPlan(optimizer, MakeQuery(1.0), 100, "t.key");
  ASSERT_TRUE(before.has_value());
  EXPECT_TRUE(BitEqual(before->estimated_fetches, published));

  ASSERT_TRUE(catalog_.stats().Publish().ok());
  auto after = IndexPlan(optimizer, MakeQuery(1.0), 100, "t.key");
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(BitEqual(after->estimated_fetches, refitted));
}

TEST_F(OptimizerSnapshotTest, QuarantinedPublishedStatsFailWithCorruption) {
  RegisterKeyIndex();
  StatsCatalog source;
  source.Put(key_stats_);
  // One flipped byte in the entry's fixed fields, after the 64 B header
  // and the one 40 B index record.
  std::string image = source.SaveToStringV3();
  image[64 + 40 + 2] ^= 0x01;
  ASSERT_TRUE(catalog_.stats().RecoverFromString(image).ok());
  ASSERT_TRUE(catalog_.stats().IsQuarantined("t.key"));
  ASSERT_TRUE(catalog_.stats().Publish().ok());

  AccessPathOptimizer optimizer(&catalog_);
  EXPECT_EQ(optimizer.Choose(MakeQuery(0.01), 100).status().code(),
            StatusCode::kCorruption);
}

// Est-IO validates every index scan it costs, so an invalid spec fails
// the call with InvalidArgument instead of being clamped into a plan.
TEST_F(OptimizerSnapshotTest, InvalidScanSpecFailsWithInvalidArgument) {
  RegisterKeyIndex();
  catalog_.stats().Put(key_stats_);
  ASSERT_TRUE(catalog_.stats().Publish().ok());

  AccessPathOptimizer optimizer(&catalog_);
  EXPECT_EQ(optimizer.Choose(MakeQuery(1.5), 100).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(optimizer.Choose(MakeQuery(0.01), 0).status().code(),
            StatusCode::kInvalidArgument);
}

// σ × S × B × {sorted, order column, RID plans}, with two indexes of
// identical statistics on the predicate column so their plans tie on
// cost: the tie must break by index name, as EnumeratePlans' stable sort
// does.
TEST_F(OptimizerSnapshotTest, ChooseIsEnumeratePlansFrontAcrossTheSweep) {
  // Registered out of name order on purpose.
  ASSERT_TRUE(catalog_.RegisterIndex("t.b", "t", 0, dataset_->index()).ok());
  ASSERT_TRUE(catalog_.RegisterIndex("t.a", "t", 0, dataset_->index()).ok());
  ASSERT_TRUE(
      catalog_.RegisterIndex("t.key2", "t", 1, dataset_->index2()).ok());
  std::vector<PageId> trace2;
  auto it = dataset_->index2()->Begin();
  ASSERT_TRUE(it.ok());
  while (it->Valid()) {
    trace2.push_back(it->entry().rid.page_id);
    ASSERT_TRUE(it->Next().ok());
  }
  auto key2 = RunLruFit(trace2, dataset_->num_pages(),
                        dataset_->num_secondary_distinct(), "t.key2");
  ASSERT_TRUE(key2.ok());
  std::map<std::string, IndexStats> stats = {
      {"t.a", Renamed(key_stats_, "t.a")},
      {"t.b", Renamed(key_stats_, "t.b")},
      {"t.key2", *key2}};
  for (const auto& [name, entry] : stats) catalog_.stats().Put(entry);
  ASSERT_TRUE(catalog_.stats().Publish().ok());

  const uint64_t pages = dataset_->num_pages();
  int index_choices = 0;
  int table_choices = 0;
  int rid_choices = 0;
  for (bool rid : {false, true}) {
    OptimizerOptions options;
    options.consider_rid_list = rid;
    AccessPathOptimizer optimizer(&catalog_, options);
    for (double sigma : {0.0005, 0.01, 0.1, 0.5, 1.0}) {
      for (double sargable : {1.0, 0.2}) {
        for (uint64_t buffer : {uint64_t{12}, pages / 4, pages}) {
          for (bool sorted : {false, true}) {
            for (std::optional<size_t> order :
                 {std::optional<size_t>(), std::optional<size_t>(0),
                  std::optional<size_t>(1)}) {
              SCOPED_TRACE(testing::Message()
                           << "rid=" << rid << " sigma=" << sigma
                           << " S=" << sargable << " B=" << buffer
                           << " sorted=" << sorted << " order="
                           << (order ? static_cast<int>(*order) : -1));
              Query query = MakeQuery(sigma);
              query.sargable_selectivity = sargable;
              query.require_sorted = sorted;
              query.order_column = order;
              auto plans = optimizer.EnumeratePlans(query, buffer);
              auto chosen = optimizer.Choose(query, buffer);
              ASSERT_TRUE(plans.ok()) << plans.status().ToString();
              ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();

              const AccessPlan& front = plans->front();
              EXPECT_EQ(chosen->type, front.type);
              EXPECT_EQ(chosen->index_name, front.index_name);
              EXPECT_TRUE(
                  BitEqual(chosen->estimated_fetches, front.estimated_fetches));
              EXPECT_TRUE(BitEqual(chosen->sort_cost, front.sort_cost));
              EXPECT_TRUE(BitEqual(chosen->total_cost, front.total_cost));
              EXPECT_NE(chosen->index_name, "t.b");

              for (const AccessPlan& plan : *plans) {
                if (plan.type != AccessPlan::Type::kIndexScan) continue;
                ScanSpec scan{sigma, sargable, buffer};
                if (plan.index_name == "t.key2") scan = {1.0, 1.0, buffer};
                auto expected =
                    EstIo::Estimate(stats.at(plan.index_name), scan);
                ASSERT_TRUE(expected.ok());
                EXPECT_TRUE(BitEqual(plan.estimated_fetches, *expected))
                    << plan.ToString();
              }
              switch (chosen->type) {
                case AccessPlan::Type::kIndexScan: ++index_choices; break;
                case AccessPlan::Type::kTableScan: ++table_choices; break;
                case AccessPlan::Type::kRidListFetch: ++rid_choices; break;
              }
            }
          }
        }
      }
    }
  }
  // The sweep reaches every plan shape, ties included.
  EXPECT_GT(index_choices, 0);
  EXPECT_GT(table_choices, 0);
  EXPECT_GT(rid_choices, 0);
}

// Readers plan with no synchronization of their own while a publisher
// alternates two versions of the index's statistics: every plan reads one
// whole published version, never a failure or a torn mix.
TEST_F(OptimizerSnapshotTest, ConcurrentPublishAndChooseSeesWholeVersions) {
  RegisterKeyIndex();
  IndexStats versions[2] = {key_stats_, key_stats_};
  versions[1].clustering = (1.0 + key_stats_.clustering) / 2.0;
  catalog_.stats().Put(versions[0]);
  ASSERT_TRUE(catalog_.stats().Publish().ok());

  const Query query = MakeQuery(0.005);
  const uint64_t buffer = dataset_->num_pages();
  ScanSpec scan{query.sigma, 1.0, buffer};
  double expected[2] = {*EstIo::Estimate(versions[0], scan),
                        *EstIo::Estimate(versions[1], scan)};
  ASSERT_NE(expected[0], expected[1]);

  constexpr int kReaders = 3;
  constexpr int kPublishes = 200;
  AccessPathOptimizer optimizer(&catalog_);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> foreign{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      do {
        auto plan = optimizer.Choose(query, buffer);
        reads.fetch_add(1);
        if (!plan.ok() || plan->type != AccessPlan::Type::kIndexScan) {
          failures.fetch_add(1);
        } else if (!BitEqual(plan->estimated_fetches, expected[0]) &&
                   !BitEqual(plan->estimated_fetches, expected[1])) {
          foreign.fetch_add(1);
        }
      } while (!done.load());
    });
  }
  for (int p = 1; p <= kPublishes; ++p) {
    catalog_.stats().Put(versions[p % 2]);
    EXPECT_TRUE(catalog_.stats().Publish().ok());
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GE(reads.load(), kReaders);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(foreign.load(), 0);
}

}  // namespace
}  // namespace epfis
