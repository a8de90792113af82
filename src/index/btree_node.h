#ifndef EPFIS_INDEX_BTREE_NODE_H_
#define EPFIS_INDEX_BTREE_NODE_H_

#include <cstdint>

#include "index/index_entry.h"
#include "storage/page.h"

namespace epfis {

/// Non-owning view over one B+-tree node page.
///
/// Common header (8 bytes):
///   [0]   u8   is_leaf
///   [1]   u8   reserved
///   [2:4] u16  num_entries
///   [4:8] u32  next_leaf (leaf) | first_child (internal)
///
/// Leaf entries (16 bytes each, from offset 8):
///   [0:8] i64 key, [8:12] u32 rid.page, [12:14] u16 rid.slot, 2 pad
///
/// Internal entries (20 bytes each, from offset 8):
///   [0:14] separator entry (same encoding), [14:18] u32 right child,
///   2 pad. Child(0) = first_child covers entries < separator 0;
///   Child(i+1) = entry i's right child covers entries >= separator i.
class BTreeNodeView {
 public:
  static constexpr uint16_t kHeaderSize = 8;
  static constexpr uint16_t kLeafEntrySize = 16;
  static constexpr uint16_t kInternalEntrySize = 20;
  static constexpr uint16_t kLeafCapacity =
      (kPageSize - kHeaderSize) / kLeafEntrySize;
  static constexpr uint16_t kInternalCapacity =
      (kPageSize - kHeaderSize) / kInternalEntrySize;

  explicit BTreeNodeView(char* data) : data_(data) {}

  /// Formats `data` as an empty leaf / internal node.
  static BTreeNodeView InitLeaf(char* data);
  static BTreeNodeView InitInternal(char* data, PageId first_child);

  bool is_leaf() const;
  uint16_t count() const;
  void set_count(uint16_t count);

  bool IsFull() const {
    return count() >= (is_leaf() ? kLeafCapacity : kInternalCapacity);
  }

  // --- Leaf accessors ---
  PageId next_leaf() const;
  void set_next_leaf(PageId page_id);

  IndexEntry LeafEntryAt(uint16_t i) const;
  void SetLeafEntryAt(uint16_t i, const IndexEntry& entry);
  /// Shifts entries [i, count) right and writes `entry` at i.
  void InsertLeafEntryAt(uint16_t i, const IndexEntry& entry);
  /// First position whose entry is >= `entry` (count() if none).
  uint16_t LeafLowerBound(const IndexEntry& entry) const;

  // --- Internal accessors ---
  PageId first_child() const;
  void set_first_child(PageId page_id);

  IndexEntry SeparatorAt(uint16_t i) const;
  /// Child pointer i, 0 <= i <= count(). Child(0) == first_child().
  PageId ChildAt(uint16_t i) const;
  /// Inserts separator at position i with its right child.
  void InsertSeparatorAt(uint16_t i, const IndexEntry& separator,
                         PageId right_child);
  /// Index of the child to descend into for `entry`: the largest i with
  /// SeparatorAt(i-1) <= entry (0 if entry < all separators).
  uint16_t ChildIndexFor(const IndexEntry& entry) const;

  char* data() const { return data_; }

 private:
  char* LeafEntryPtr(uint16_t i) const;
  char* InternalEntryPtr(uint16_t i) const;

  char* data_;
};

}  // namespace epfis

#endif  // EPFIS_INDEX_BTREE_NODE_H_
