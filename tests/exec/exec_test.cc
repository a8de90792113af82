#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "buffer/lru_simulator.h"
#include "exec/index_scan.h"
#include "exec/predicate.h"
#include "exec/table_scan.h"
#include "storage/slotted_page.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

TEST(KeyRangeTest, ContainmentAndBounds) {
  KeyRange all = KeyRange::All();
  EXPECT_TRUE(all.Contains(INT64_MIN));
  EXPECT_TRUE(all.Contains(0));
  EXPECT_EQ(all.EffectiveLo(), INT64_MIN);
  EXPECT_EQ(all.EffectiveHi(), INT64_MAX);

  KeyRange closed = KeyRange::Closed(10, 20);
  EXPECT_FALSE(closed.Contains(9));
  EXPECT_TRUE(closed.Contains(10));
  EXPECT_TRUE(closed.Contains(20));
  EXPECT_FALSE(closed.Contains(21));
  EXPECT_EQ(closed.EffectiveLo(), 10);
  EXPECT_EQ(closed.EffectiveHi(), 20);

  KeyRange open{10, false, 20, false};
  EXPECT_FALSE(open.Contains(10));
  EXPECT_TRUE(open.Contains(11));
  EXPECT_TRUE(open.Contains(19));
  EXPECT_FALSE(open.Contains(20));
  EXPECT_EQ(open.EffectiveLo(), 11);
  EXPECT_EQ(open.EffectiveHi(), 19);

  EXPECT_EQ(closed.ToString(), "[10, 20]");
  EXPECT_EQ(open.ToString(), "(10, 20)");
  EXPECT_EQ(all.ToString(), "(-inf, +inf)");
}

TEST(SargableFilterTest, ExtremesAndDeterminism) {
  SargableFilter keep_all(1.0, 1);
  SargableFilter keep_none(0.0, 1);
  IndexEntry e{42, Rid{7, 3}};
  EXPECT_TRUE(keep_all.Keep(e));
  EXPECT_FALSE(keep_none.Keep(e));

  SargableFilter f1(0.5, 9), f2(0.5, 9), f3(0.5, 10);
  int agree = 0, diff = 0;
  for (int64_t k = 0; k < 500; ++k) {
    IndexEntry entry{k, Rid{static_cast<PageId>(k % 13),
                            static_cast<uint16_t>(k % 7)}};
    EXPECT_EQ(f1.Keep(entry), f2.Keep(entry));
    if (f1.Keep(entry) == f3.Keep(entry)) {
      ++agree;
    } else {
      ++diff;
    }
  }
  EXPECT_GT(diff, 50);  // Different seeds pick different subsets.
  (void)agree;
}

TEST(SargableFilterTest, SelectivityApproximatelyRespected) {
  for (double s : {0.1, 0.25, 0.5, 0.9}) {
    SargableFilter filter(s, 77);
    int kept = 0;
    const int kTotal = 20000;
    for (int i = 0; i < kTotal; ++i) {
      IndexEntry e{i, Rid{static_cast<PageId>(i / 40),
                          static_cast<uint16_t>(i % 40)}};
      if (filter.Keep(e)) ++kept;
    }
    EXPECT_NEAR(kept / static_cast<double>(kTotal), s, 0.02) << "s=" << s;
  }
}

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 4000;
    spec.num_distinct = 200;
    spec.records_per_page = 20;
    spec.window_fraction = 0.3;  // Noticeably unclustered.
    spec.seed = 51;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
  }

  std::unique_ptr<Dataset> dataset_;
};

TEST_F(ExecTest, TableScanFetchesEveryPageOnce) {
  auto pool = dataset_->MakeDataPool(5);  // Tiny pool: still T fetches.
  auto result =
      RunTableScan(*dataset_->table(), pool.get(), KeyRange::Closed(50, 90), 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pages_fetched, dataset_->num_pages());
  EXPECT_EQ(result->records_scanned, dataset_->num_records());
  EXPECT_EQ(result->records_qualifying, dataset_->RecordsInRange(50, 90));
}

TEST_F(ExecTest, TableScanBufferSizeIrrelevant) {
  auto small = dataset_->MakeDataPool(2);
  auto large = dataset_->MakeDataPool(1000);
  auto r1 = RunTableScan(*dataset_->table(), small.get(), KeyRange::All(), 0);
  auto r2 = RunTableScan(*dataset_->table(), large.get(), KeyRange::All(), 0);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->pages_fetched, r2->pages_fetched);
}

TEST_F(ExecTest, TableScanRejectsBadColumn) {
  auto pool = dataset_->MakeDataPool(10);
  EXPECT_FALSE(
      RunTableScan(*dataset_->table(), pool.get(), KeyRange::All(), 9).ok());
}

TEST_F(ExecTest, IndexScanCountsMatchDatasetBookkeeping) {
  auto pool = dataset_->MakeDataPool(50);
  KeyRange range = KeyRange::Closed(10, 60);
  auto result = RunIndexScan(*dataset_->index(), *dataset_->table(),
                             pool.get(), range);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries_examined, dataset_->RecordsInRange(10, 60));
  EXPECT_EQ(result->records_fetched, result->entries_examined);
  EXPECT_GE(result->data_page_fetches, result->data_pages_accessed);
  EXPECT_LE(result->data_pages_accessed, dataset_->num_pages());
}

TEST_F(ExecTest, IndexScanFetchesMatchLruSimulationOfTrace) {
  // The real buffer-pool execution and the trace-based LRU simulation must
  // report the same fetch count: this ties the measurement path used by
  // the harness to the actual system behavior.
  KeyRange range = KeyRange::Closed(20, 160);
  auto trace = CollectScanTrace(*dataset_->index(), range);
  ASSERT_TRUE(trace.ok());
  for (size_t pool_size : {3u, 10u, 40u, 200u}) {
    auto pool = dataset_->MakeDataPool(pool_size);
    auto result = RunIndexScan(*dataset_->index(), *dataset_->table(),
                               pool.get(), range);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->data_page_fetches,
              CountLruFetches(*trace, pool_size))
        << "pool=" << pool_size;
  }
}

TEST_F(ExecTest, IndexScanTraceCollection) {
  // CollectScanTrace reads the same entries RunIndexScan fetches: one
  // reference per fetched record, over the pages the scan accessed.
  auto pool = dataset_->MakeDataPool(50);
  KeyRange range = KeyRange::Closed(1, 30);
  auto result =
      RunIndexScan(*dataset_->index(), *dataset_->table(), pool.get(), range);
  ASSERT_TRUE(result.ok());
  auto trace = CollectScanTrace(*dataset_->index(), range);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), result->records_fetched);
  std::set<PageId> pages(trace->begin(), trace->end());
  EXPECT_EQ(pages.size(), result->data_pages_accessed);
}

TEST_F(ExecTest, IndexScanWithSargableFilterFetchesSubset) {
  auto pool_all = dataset_->MakeDataPool(100);
  auto pool_some = dataset_->MakeDataPool(100);
  KeyRange range = KeyRange::Closed(1, 200);
  SargableFilter filter(0.2, 99);
  auto all = RunIndexScan(*dataset_->index(), *dataset_->table(),
                          pool_all.get(), range);
  auto some = RunIndexScan(*dataset_->index(), *dataset_->table(),
                           pool_some.get(), range, &filter);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some->entries_examined, all->entries_examined);
  EXPECT_LT(some->records_fetched, all->records_fetched);
  EXPECT_LE(some->data_page_fetches, all->data_page_fetches);
  EXPECT_NEAR(static_cast<double>(some->records_fetched) /
                  static_cast<double>(all->records_fetched),
              0.2, 0.03);
}

TEST_F(ExecTest, ClusteredScanFetchesEqualAccesses) {
  // A clustered dataset: F == A regardless of buffer size (paper §2).
  SyntheticSpec spec;
  spec.num_records = 2000;
  spec.num_distinct = 100;
  spec.records_per_page = 20;
  spec.window_fraction = 0.0;
  spec.noise = 0.0;
  spec.seed = 52;
  auto clustered = GenerateSynthetic(spec);
  ASSERT_TRUE(clustered.ok());
  for (size_t pool_size : {1u, 5u, 100u}) {
    auto pool = (*clustered)->MakeDataPool(pool_size);
    auto result = RunIndexScan(*(*clustered)->index(), *(*clustered)->table(),
                               pool.get(), KeyRange::Closed(10, 50));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->data_page_fetches, result->data_pages_accessed)
        << "pool=" << pool_size;
  }
}

TEST_F(ExecTest, EmptyRangeScansNothing) {
  auto pool = dataset_->MakeDataPool(10);
  auto result = RunIndexScan(*dataset_->index(), *dataset_->table(),
                             pool.get(), KeyRange::Closed(500, 600));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries_examined, 0u);
  EXPECT_EQ(result->data_page_fetches, 0u);
}

TEST_F(ExecTest, ShortRecordIsCorruptionNotAnOverread) {
  // A heap page holding a record shorter than the schema's record size:
  // both scans must stop with Corruption instead of reading past its end.
  DiskManager data_disk;
  DiskManager index_disk;
  BufferPool build_pool(&data_disk, 4);
  BufferPool index_pool(&index_disk, 16);
  auto schema = Schema::Make({Column{"key"}, Column{"payload"}});
  ASSERT_TRUE(schema.ok());
  TableHeap heap(&build_pool, *schema);
  BTree index(&index_pool);
  auto good = heap.Insert(Record({7, 70}));
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(index.Insert(IndexEntry{7, *good}).ok());
  Rid short_rid;
  {
    auto guard = build_pool.FetchPage(good->page_id);
    ASSERT_TRUE(guard.ok());
    auto slot = SlottedPage(guard->mutable_data()).Insert("short");
    ASSERT_TRUE(slot.ok());
    short_rid = Rid{good->page_id, *slot};
  }
  ASSERT_TRUE(index.Insert(IndexEntry{8, short_rid}).ok());
  ASSERT_TRUE(build_pool.FlushAll().ok());

  BufferPool table_pool(&data_disk, 4);
  auto table = RunTableScan(heap, &table_pool, KeyRange::All(), 0);
  EXPECT_EQ(table.status().code(), StatusCode::kCorruption);

  BufferPool scan_pool(&data_disk, 4);
  auto fine = RunIndexScan(index, heap, &scan_pool, KeyRange::Closed(7, 7));
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->records_fetched, 1u);
  auto bad = RunIndexScan(index, heap, &scan_pool, KeyRange::Closed(8, 8));
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace epfis
