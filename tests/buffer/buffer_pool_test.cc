#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "storage/disk_manager.h"

namespace epfis {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  DiskManager disk_;
};

TEST_F(BufferPoolTest, NewPagePinsAndWritesBack) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    pid = guard->page_id();
    std::strcpy(guard->mutable_data(), "payload");
    EXPECT_EQ(pool.num_pinned(), 1u);
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());

  char buf[kPageSize];
  ASSERT_TRUE(disk_.ReadPage(pid, buf).ok());
  EXPECT_STREQ(buf, "payload");
}

TEST_F(BufferPoolTest, FetchHitAvoidsDiskRead) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    pid = guard->page_id();
  }
  uint64_t reads_before = disk_.num_reads();
  {
    auto guard = pool.FetchPage(pid);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(disk_.num_reads(), reads_before);  // Still resident: hit.
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().fetches, 0u);
}

TEST_F(BufferPoolTest, EvictionWritesDirtyPageAndRefetchWorks) {
  BufferPool pool(&disk_, 1);  // Single frame: every new page evicts.
  PageId p0, p1;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    p0 = g->page_id();
    std::strcpy(g->mutable_data(), "zero");
  }
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    p1 = g->page_id();
    std::strcpy(g->mutable_data(), "one");
  }
  // p0 was evicted (written back); fetch it again.
  auto g = pool.FetchPage(p0);
  ASSERT_TRUE(g.ok());
  EXPECT_STREQ(g->data(), "zero");
  EXPECT_EQ(pool.stats().fetches, 1u);
  EXPECT_GE(pool.stats().evictions, 2u);
  (void)p1;
}

TEST_F(BufferPoolTest, AllFramesPinnedFailsGracefully) {
  BufferPool pool(&disk_, 2);
  auto g1 = pool.NewPage();
  auto g2 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.NewPage();
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
  g1->Release();
  auto g4 = pool.NewPage();
  EXPECT_TRUE(g4.ok());
}

TEST_F(BufferPoolTest, FetchUnknownPageFails) {
  // kInvalidPageId is the page table's empty-slot key: it must be rejected
  // like any other id the disk does not hold, never reported as a hit.
  for (PageId bad : {PageId{99}, kInvalidPageId}) {
    BufferPool pool(&disk_, 2);
    auto g = pool.FetchPage(bad);
    EXPECT_FALSE(g.ok()) << "page " << bad;
    EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange) << "page " << bad;
    EXPECT_EQ(pool.stats().requests, 1u);
    EXPECT_EQ(pool.stats().hits, 0u);
    EXPECT_EQ(pool.stats().fetches, 0u);
    // The frame must be reusable afterwards.
    EXPECT_TRUE(pool.NewPage().ok());
  }
}

TEST_F(BufferPoolTest, FailedFetchEvictsNothing) {
  PageId p0 = disk_.AllocatePage();
  BufferPool pool(&disk_, 1);
  { ASSERT_TRUE(pool.FetchPage(p0).ok()); }
  for (PageId bad : {PageId{99}, kInvalidPageId}) {
    auto g = pool.FetchPage(bad);
    EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange) << "page " << bad;
  }
  // Page 0 is still resident: the failed fetches chose no victim.
  { ASSERT_TRUE(pool.FetchPage(p0).ok()); }
  EXPECT_EQ(pool.stats().requests, 4u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().fetches, 1u);
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_EQ(pool.stats().writebacks, 0u);
}

TEST_F(BufferPoolTest, OverflowingPoolSizeThrows) {
  // pool_size * kPageSize must not wrap to a small frame arena.
  const size_t too_many = SIZE_MAX / kPageSize + 1;
  EXPECT_THROW({ BufferPool pool(&disk_, too_many); }, std::length_error);
}

TEST_F(BufferPoolTest, DoublePinTracksPinCount) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pid = g->page_id();
    auto g2 = pool.FetchPage(pid);
    ASSERT_TRUE(g2.ok());
    EXPECT_EQ(pool.num_pinned(), 1u);  // One page, pinned twice.
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfGuard) {
  BufferPool pool(&disk_, 2);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  PageGuard moved = std::move(g).value();
  EXPECT_TRUE(moved.valid());
  PageGuard assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.valid());
  EXPECT_FALSE(moved.valid());  // NOLINT(bugprone-use-after-move)
  assigned.Release();
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST_F(BufferPoolTest, LruEvictionOrderRespected) {
  BufferPool pool(&disk_, 3);
  PageId pids[5];
  for (int i = 0; i < 3; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pids[i] = g->page_id();
  }
  // Touch page 0 so page 1 becomes LRU.
  { ASSERT_TRUE(pool.FetchPage(pids[0]).ok()); }
  // New page evicts pids[1].
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pids[3] = g->page_id();
  }
  const uint64_t before = pool.stats().fetches;
  { ASSERT_TRUE(pool.FetchPage(pids[0]).ok()); }  // Hit.
  { ASSERT_TRUE(pool.FetchPage(pids[2]).ok()); }  // Hit.
  EXPECT_EQ(pool.stats().fetches, before);
  { ASSERT_TRUE(pool.FetchPage(pids[1]).ok()); }  // Miss: was evicted.
  EXPECT_EQ(pool.stats().fetches, before + 1);
}

TEST_F(BufferPoolTest, StatsCountRequestsHitsFetches) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pid = g->page_id();
  }
  { ASSERT_TRUE(pool.FetchPage(pid).ok()); }
  { ASSERT_TRUE(pool.FetchPage(pid).ok()); }
  EXPECT_EQ(pool.stats().requests, 2u);
  EXPECT_EQ(pool.stats().hits, 2u);
  EXPECT_EQ(pool.stats().fetches, 0u);
}

}  // namespace
}  // namespace epfis
