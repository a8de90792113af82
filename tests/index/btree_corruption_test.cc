// Failure-injection tests: CheckIntegrity must detect controlled
// corruptions written directly to the underlying "disk".

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "buffer/buffer_pool.h"
#include "index/btree.h"
#include "index/btree_node.h"
#include "storage/disk_manager.h"

namespace epfis {
namespace {

class BTreeCorruptionColdTest : public ::testing::Test {
 protected:
  // Builds the tree with a tiny pool so nothing stays cached and direct
  // disk edits are always observed.
  void SetUp() override {
    disk_ = std::make_unique<DiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 2);
    tree_ = std::make_unique<BTree>(pool_.get(), "victim");
    std::vector<IndexEntry> entries;
    for (int i = 0; i < 2000; ++i) {
      entries.push_back(
          IndexEntry{i, Rid{static_cast<PageId>(i / 50),
                            static_cast<uint16_t>(i % 50)}});
    }
    ASSERT_TRUE(tree_->BulkLoad(entries).ok());
    ASSERT_TRUE(pool_->FlushAll().ok());
    ASSERT_TRUE(tree_->CheckIntegrity().ok());
  }

  void CorruptPage(PageId pid,
                   const std::function<void(BTreeNodeView&)>& edit) {
    ASSERT_TRUE(pool_->FlushAll().ok());
    char buf[kPageSize];
    ASSERT_TRUE(disk_->ReadPage(pid, buf).ok());
    BTreeNodeView node(buf);
    edit(node);
    ASSERT_TRUE(disk_->WritePage(pid, buf).ok());
    // Cycle the (2-frame) pool so the stale copy is evicted.
    for (PageId p = 0; p < 4 && p < disk_->num_pages(); ++p) {
      auto guard = pool_->FetchPage(p == pid ? (pid + 1) % 2 : p);
      (void)guard;
    }
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeCorruptionColdTest, DetectsSwappedLeafEntries) {
  CorruptPage(0, [](BTreeNodeView& node) {
    ASSERT_TRUE(node.is_leaf());
    IndexEntry a = node.LeafEntryAt(0);
    IndexEntry b = node.LeafEntryAt(1);
    node.SetLeafEntryAt(0, b);
    node.SetLeafEntryAt(1, a);
  });
  Status status = tree_->CheckIntegrity();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(BTreeCorruptionColdTest, DetectsEntryAboveSeparatorBound) {
  CorruptPage(0, [](BTreeNodeView& node) {
    ASSERT_TRUE(node.is_leaf());
    // Last entry of the first leaf jumps above every separator.
    node.SetLeafEntryAt(static_cast<uint16_t>(node.count() - 1),
                        IndexEntry{1 << 20, Rid{0, 0}});
  });
  Status status = tree_->CheckIntegrity();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(BTreeCorruptionColdTest, DetectsEmptyInternalNode) {
  // Find an internal page: bulk load allocates leaves first, internals
  // after; the last allocated page is the root (or an internal).
  PageId internal = disk_->num_pages() - 1;
  CorruptPage(internal, [](BTreeNodeView& node) {
    ASSERT_FALSE(node.is_leaf());
    node.set_count(0);
  });
  Status status = tree_->CheckIntegrity();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(BTreeCorruptionColdTest, DetectsBrokenLeafChainCount) {
  // Truncating a leaf's entry count makes the chain miss entries.
  CorruptPage(0, [](BTreeNodeView& node) {
    ASSERT_TRUE(node.is_leaf());
    node.set_count(static_cast<uint16_t>(node.count() - 5));
  });
  Status status = tree_->CheckIntegrity();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace epfis
