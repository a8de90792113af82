#ifndef EPFIS_INDEX_BTREE_H_
#define EPFIS_INDEX_BTREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "index/btree_iterator.h"
#include "index/btree_node.h"
#include "index/index_entry.h"
#include "util/result.h"

namespace epfis {

/// Disk-resident B+-tree over (key, rid) entries, paged through a buffer
/// pool. Supports point insert with node splits, bulk load of sorted entry
/// sets, point lookup, and ordered forward iteration with leaf chaining —
/// everything an index scan per the paper needs.
///
/// The tree is typically given its *own* buffer pool (see workload/dataset):
/// the paper's measurements count data-page fetches only, so index-page I/O
/// is kept out of the measured pool.
class BTree {
 public:
  /// Creates an empty tree whose nodes live in `pool`'s disk.
  explicit BTree(BufferPool* pool, std::string name = "index");

  /// Smallest possible entry for a key: the seek target of a key-range
  /// predicate's lower bound.
  static IndexEntry MinEntryForKey(int64_t key) {
    return IndexEntry{key, Rid{0, 0}};
  }

  /// Inserts one entry; fails with AlreadyExists on an exact duplicate.
  Status Insert(const IndexEntry& entry);

  /// Bulk loads into an *empty* tree; `entries` need not be sorted (they
  /// are sorted in place). Fails on exact duplicates or a non-empty tree.
  Status BulkLoad(std::vector<IndexEntry> entries);

  /// True if the exact entry is present.
  Result<bool> Contains(const IndexEntry& entry) const;

  /// Iterator at the smallest entry (invalid iterator if empty).
  Result<BTreeIterator> Begin() const;

  /// Iterator at the first entry >= `entry` (invalid if none).
  Result<BTreeIterator> SeekGE(const IndexEntry& entry) const;

  uint64_t num_entries() const { return num_entries_; }
  uint32_t height() const { return height_; }
  uint32_t num_nodes() const { return num_nodes_; }
  const std::string& name() const { return name_; }
  bool empty() const { return root_ == kInvalidPageId; }

  /// Validates tree invariants (ordering, separator consistency, leaf
  /// chain); used by tests. Expensive: touches every node.
  Status CheckIntegrity() const;

 private:
  friend class BTreeIterator;

  Result<PageId> NewLeafPage();
  Result<PageId> NewInternalPage(PageId first_child);

  /// Recursive insert; on split sets *promoted / *new_right.
  Status InsertRec(PageId page_id, const IndexEntry& entry, bool* split,
                   IndexEntry* promoted, PageId* new_right);

  /// Descends to the leaf that would contain `entry`.
  Result<PageId> FindLeaf(const IndexEntry& entry) const;

  Status CheckNode(PageId page_id, const IndexEntry* lo, const IndexEntry* hi,
                   uint32_t depth, uint32_t leaf_depth) const;
  Result<uint32_t> LeafDepth() const;

  BufferPool* pool_;
  std::string name_;
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  uint32_t height_ = 0;  // 0 = empty, 1 = root is a leaf.
  uint32_t num_nodes_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_INDEX_BTREE_H_
