#include "index/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "buffer/buffer_pool.h"
#include "index/btree_iterator.h"
#include "index/btree_node.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace epfis {
namespace {

IndexEntry MakeEntry(int64_t key, uint32_t page = 0, uint16_t slot = 0) {
  return IndexEntry{key, Rid{page, slot}};
}

TEST(BTreeNodeTest, LeafLayoutRoundTrip) {
  char buf[kPageSize];
  BTreeNodeView node = BTreeNodeView::InitLeaf(buf);
  EXPECT_TRUE(node.is_leaf());
  EXPECT_EQ(node.count(), 0u);
  EXPECT_EQ(node.next_leaf(), kInvalidPageId);

  node.InsertLeafEntryAt(0, MakeEntry(10, 1, 2));
  node.InsertLeafEntryAt(1, MakeEntry(30, 3, 4));
  node.InsertLeafEntryAt(1, MakeEntry(20, 5, 6));  // Shifts 30 right.
  ASSERT_EQ(node.count(), 3u);
  EXPECT_EQ(node.LeafEntryAt(0), MakeEntry(10, 1, 2));
  EXPECT_EQ(node.LeafEntryAt(1), MakeEntry(20, 5, 6));
  EXPECT_EQ(node.LeafEntryAt(2), MakeEntry(30, 3, 4));

  EXPECT_EQ(node.LeafLowerBound(MakeEntry(5)), 0u);
  EXPECT_EQ(node.LeafLowerBound(MakeEntry(20, 5, 6)), 1u);
  EXPECT_EQ(node.LeafLowerBound(MakeEntry(25)), 2u);
  EXPECT_EQ(node.LeafLowerBound(MakeEntry(99)), 3u);
}

TEST(BTreeNodeTest, InternalLayoutRoundTrip) {
  char buf[kPageSize];
  BTreeNodeView node = BTreeNodeView::InitInternal(buf, /*first_child=*/7);
  EXPECT_FALSE(node.is_leaf());
  EXPECT_EQ(node.first_child(), 7u);

  node.InsertSeparatorAt(0, MakeEntry(100), 8);
  node.InsertSeparatorAt(1, MakeEntry(300), 10);
  node.InsertSeparatorAt(1, MakeEntry(200), 9);
  ASSERT_EQ(node.count(), 3u);
  EXPECT_EQ(node.SeparatorAt(0).key, 100);
  EXPECT_EQ(node.SeparatorAt(1).key, 200);
  EXPECT_EQ(node.SeparatorAt(2).key, 300);
  EXPECT_EQ(node.ChildAt(0), 7u);
  EXPECT_EQ(node.ChildAt(1), 8u);
  EXPECT_EQ(node.ChildAt(2), 9u);
  EXPECT_EQ(node.ChildAt(3), 10u);

  EXPECT_EQ(node.ChildIndexFor(MakeEntry(50)), 0u);
  EXPECT_EQ(node.ChildIndexFor(MakeEntry(100)), 1u);
  EXPECT_EQ(node.ChildIndexFor(MakeEntry(150)), 1u);
  EXPECT_EQ(node.ChildIndexFor(MakeEntry(250)), 2u);
  EXPECT_EQ(node.ChildIndexFor(MakeEntry(900)), 3u);
}

TEST(BTreeNodeTest, Capacities) {
  EXPECT_EQ(BTreeNodeView::kLeafCapacity, (kPageSize - 8) / 16);
  EXPECT_EQ(BTreeNodeView::kInternalCapacity, (kPageSize - 8) / 20);
  EXPECT_GE(BTreeNodeView::kLeafCapacity, 200u);
}

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<DiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 64);
    tree_ = std::make_unique<BTree>(pool_.get(), "test");
  }

  std::vector<IndexEntry> Drain(BTreeIterator it) {
    std::vector<IndexEntry> out;
    while (it.Valid()) {
      out.push_back(it.entry());
      EXPECT_TRUE(it.Next().ok());
    }
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_TRUE(tree_->empty());
  EXPECT_EQ(tree_->num_entries(), 0u);
  auto it = tree_->Begin();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(tree_->Contains(MakeEntry(1)).value());
  EXPECT_TRUE(tree_->CheckIntegrity().ok());
}

TEST_F(BTreeTest, InsertAndContains) {
  ASSERT_TRUE(tree_->Insert(MakeEntry(5, 1, 1)).ok());
  ASSERT_TRUE(tree_->Insert(MakeEntry(3, 2, 2)).ok());
  ASSERT_TRUE(tree_->Insert(MakeEntry(8, 3, 3)).ok());
  EXPECT_EQ(tree_->num_entries(), 3u);
  EXPECT_TRUE(tree_->Contains(MakeEntry(5, 1, 1)).value());
  EXPECT_FALSE(tree_->Contains(MakeEntry(5, 1, 2)).value());
  EXPECT_FALSE(tree_->Contains(MakeEntry(4)).value());
}

TEST_F(BTreeTest, DuplicateExactEntryRejected) {
  ASSERT_TRUE(tree_->Insert(MakeEntry(5, 1, 1)).ok());
  EXPECT_EQ(tree_->Insert(MakeEntry(5, 1, 1)).code(),
            StatusCode::kAlreadyExists);
  // Same key, different RID is fine (duplicate key values).
  EXPECT_TRUE(tree_->Insert(MakeEntry(5, 1, 2)).ok());
}

TEST_F(BTreeTest, IterationInOrderAcrossSplits) {
  // Enough entries to force several leaf splits and an internal level.
  const int kN = 2000;
  Rng rng(17);
  std::vector<int64_t> keys;
  for (int i = 0; i < kN; ++i) keys.push_back(i);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(tree_->Insert(MakeEntry(k, static_cast<uint32_t>(k), 0)).ok());
  }
  EXPECT_GT(tree_->height(), 1u);
  ASSERT_TRUE(tree_->CheckIntegrity().ok());

  auto it = tree_->Begin();
  ASSERT_TRUE(it.ok());
  std::vector<IndexEntry> all = Drain(std::move(it).value());
  ASSERT_EQ(all.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(all[i].key, i);
  }
}

TEST_F(BTreeTest, RandomInsertMatchesSetOracle) {
  Rng rng(23);
  std::set<IndexEntry> oracle;
  for (int i = 0; i < 3000; ++i) {
    IndexEntry e = MakeEntry(static_cast<int64_t>(rng.NextBounded(401)),
                             static_cast<uint32_t>(rng.NextBounded(50)),
                             static_cast<uint16_t>(rng.NextBounded(100)));
    Status s = tree_->Insert(e);
    if (oracle.count(e) > 0) {
      EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
    } else {
      ASSERT_TRUE(s.ok());
      oracle.insert(e);
    }
  }
  EXPECT_EQ(tree_->num_entries(), oracle.size());
  ASSERT_TRUE(tree_->CheckIntegrity().ok());

  auto it = tree_->Begin();
  ASSERT_TRUE(it.ok());
  std::vector<IndexEntry> all = Drain(std::move(it).value());
  ASSERT_EQ(all.size(), oracle.size());
  size_t i = 0;
  for (const IndexEntry& e : oracle) {
    EXPECT_EQ(all[i++], e);
  }

  // Point lookups agree with the oracle.
  for (int probe = 0; probe < 500; ++probe) {
    IndexEntry e = MakeEntry(static_cast<int64_t>(rng.NextBounded(401)),
                             static_cast<uint32_t>(rng.NextBounded(50)),
                             static_cast<uint16_t>(rng.NextBounded(100)));
    EXPECT_EQ(tree_->Contains(e).value(), oracle.count(e) > 0);
  }
}

TEST_F(BTreeTest, SeekGEFindsFirstNotLess) {
  for (int64_t k : {10, 20, 30, 40, 50}) {
    ASSERT_TRUE(tree_->Insert(MakeEntry(k)).ok());
  }
  auto it = tree_->SeekGE(MakeEntry(25));
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->entry().key, 30);

  it = tree_->SeekGE(MakeEntry(30));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it->entry().key, 30);

  it = tree_->SeekGE(MakeEntry(55));
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());

  it = tree_->SeekGE(MakeEntry(-100));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it->entry().key, 10);
}

TEST_F(BTreeTest, SeekGEAcrossLeafBoundaries) {
  const int kN = 1500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeEntry(2 * i)).ok());  // Even keys.
  }
  Rng rng(29);
  for (int probe = 0; probe < 200; ++probe) {
    int64_t target = static_cast<int64_t>(rng.NextBounded(2 * kN + 1));
    auto it = tree_->SeekGE(BTree::MinEntryForKey(target));
    ASSERT_TRUE(it.ok());
    int64_t expected = (target % 2 == 0) ? target : target + 1;
    if (expected >= 2 * kN) {
      EXPECT_FALSE(it->Valid());
    } else {
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ(it->entry().key, expected);
    }
  }
}

TEST_F(BTreeTest, BulkLoadMatchesIncrementalInsert) {
  Rng rng(31);
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 5000; ++i) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(100001));
    entries.push_back(MakeEntry(key, static_cast<uint32_t>(i), 0));
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  EXPECT_EQ(tree_->num_entries(), entries.size());
  ASSERT_TRUE(tree_->CheckIntegrity().ok());

  auto it = tree_->Begin();
  ASSERT_TRUE(it.ok());
  std::vector<IndexEntry> all = Drain(std::move(it).value());
  EXPECT_EQ(all, entries);
}

TEST_F(BTreeTest, BulkLoadRejectsNonEmptyAndDuplicates) {
  ASSERT_TRUE(tree_->Insert(MakeEntry(1)).ok());
  EXPECT_EQ(tree_->BulkLoad({MakeEntry(2)}).code(),
            StatusCode::kFailedPrecondition);

  BTree fresh(pool_.get(), "fresh");
  EXPECT_EQ(fresh.BulkLoad({MakeEntry(1), MakeEntry(1)}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, BulkLoadUnsortedInputIsSorted) {
  ASSERT_TRUE(tree_->BulkLoad({MakeEntry(3), MakeEntry(1), MakeEntry(2)}).ok());
  auto it = tree_->Begin();
  ASSERT_TRUE(it.ok());
  std::vector<IndexEntry> all = Drain(std::move(it).value());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, 1);
  EXPECT_EQ(all[2].key, 3);
}

TEST_F(BTreeTest, BulkLoadLargeBuildsMultipleLevels) {
  std::vector<IndexEntry> entries;
  const int kN = 100000;
  entries.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    entries.push_back(MakeEntry(i, static_cast<uint32_t>(i / 100),
                                static_cast<uint16_t>(i % 100)));
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  EXPECT_GE(tree_->height(), 3u);
  ASSERT_TRUE(tree_->CheckIntegrity().ok());

  // Spot-check seeks.
  auto it = tree_->SeekGE(BTree::MinEntryForKey(54321));
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->entry().key, 54321);
}

TEST_F(BTreeTest, DuplicateKeysStoredInRidOrder) {
  // 600 entries with the same key must iterate in RID order ("sorted RIDs
  // per key value").
  std::vector<IndexEntry> entries;
  for (uint32_t p = 0; p < 600; ++p) {
    entries.push_back(MakeEntry(7, 600 - 1 - p, 0));  // Reverse RID order.
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  auto it = tree_->SeekGE(BTree::MinEntryForKey(7));
  ASSERT_TRUE(it.ok());
  std::vector<IndexEntry> all = Drain(std::move(it).value());
  ASSERT_EQ(all.size(), 600u);
  for (uint32_t p = 0; p < 600; ++p) {
    EXPECT_EQ(all[p].rid.page_id, p);
  }
}

TEST_F(BTreeTest, MinMaxEntryForKeyBracketDuplicates) {
  ASSERT_TRUE(tree_->Insert(MakeEntry(10, 5, 5)).ok());
  ASSERT_TRUE(tree_->Insert(MakeEntry(10, 1, 1)).ok());
  ASSERT_TRUE(tree_->Insert(MakeEntry(11, 0, 0)).ok());
  auto it = tree_->SeekGE(BTree::MinEntryForKey(10));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it->entry().rid.page_id, 1u);
  it = tree_->SeekGE(BTree::MinEntryForKey(11));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it->entry().key, 11);
}

TEST_F(BTreeTest, IteratorNextOnInvalidFails) {
  BTreeIterator it;
  EXPECT_EQ(it.Next().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BTreeTest, WorksWithTinyBufferPool) {
  // The tree must function (slowly) even when the pool is much smaller
  // than the tree: pins are released promptly.
  BufferPool tiny(disk_.get(), 4);
  BTree tree(&tiny, "tiny");
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree.Insert(MakeEntry(i * 7 % 3000, 0, static_cast<uint16_t>(i))).ok())
        << i;
  }
  EXPECT_EQ(tree.num_entries(), 3000u);
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

}  // namespace
}  // namespace epfis
