#include "storage/table_heap.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "storage/disk_manager.h"

namespace epfis {
namespace {

class TableHeapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<DiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 16);
    auto schema = Schema::MakeWithRecordsPerPage({Column{"key"}}, 10);
    ASSERT_TRUE(schema.ok());
    heap_ = std::make_unique<TableHeap>(pool_.get(), *schema, "t");
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<TableHeap> heap_;
};

TEST_F(TableHeapTest, StartsEmpty) {
  EXPECT_EQ(heap_->num_pages(), 0u);
  EXPECT_EQ(heap_->num_records(), 0u);
  EXPECT_FALSE(heap_->PageAt(0).ok());
}

TEST_F(TableHeapTest, InsertAllocatesPagesAsNeeded) {
  for (int i = 0; i < 25; ++i) {
    auto rid = heap_->Insert(Record({i}));
    ASSERT_TRUE(rid.ok()) << i;
  }
  // 10 records per page -> 3 pages.
  EXPECT_EQ(heap_->num_pages(), 3u);
  EXPECT_EQ(heap_->num_records(), 25u);
}

TEST_F(TableHeapTest, GetReturnsInserted) {
  auto rid = heap_->Insert(Record({777}));
  ASSERT_TRUE(rid.ok());
  auto rec = heap_->Get(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->value(0), 777);
}

TEST_F(TableHeapTest, InsertIntoSpecificPage) {
  ASSERT_TRUE(heap_->AppendPage().ok());
  ASSERT_TRUE(heap_->AppendPage().ok());
  ASSERT_TRUE(heap_->AppendPage().ok());

  auto rid = heap_->InsertIntoPage(2, Record({5}));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid->page_id, heap_->PageAt(2).value());
  EXPECT_EQ(heap_->Get(*rid)->value(0), 5);
}

TEST_F(TableHeapTest, InsertIntoFullPageFails) {
  ASSERT_TRUE(heap_->AppendPage().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap_->InsertIntoPage(0, Record({i})).ok());
  }
  auto rid = heap_->InsertIntoPage(0, Record({99}));
  EXPECT_EQ(rid.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(TableHeapTest, InsertIntoBadOrdinalFails) {
  EXPECT_EQ(heap_->InsertIntoPage(3, Record({1})).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(TableHeapTest, SurvivesPoolEviction) {
  // Pool of 16 frames, 50 pages of data: inserted records must survive
  // eviction and read back through the pool.
  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    auto rid = heap_->Insert(Record({i}));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ(heap_->num_pages(), 50u);
  ASSERT_TRUE(pool_->FlushAll().ok());
  for (int i = 0; i < 500; ++i) {
    auto record = heap_->Get(rids[i]);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->value(0), i);
  }
}

}  // namespace
}  // namespace epfis
