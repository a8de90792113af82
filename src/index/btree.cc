#include "index/btree.h"

#include <algorithm>

#include "index/btree_iterator.h"

namespace epfis {

BTree::BTree(BufferPool* pool, std::string name)
    : pool_(pool), name_(std::move(name)) {}

Result<PageId> BTree::NewLeafPage() {
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
  BTreeNodeView::InitLeaf(guard.mutable_data());
  ++num_nodes_;
  return guard.page_id();
}

Result<PageId> BTree::NewInternalPage(PageId first_child) {
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
  BTreeNodeView::InitInternal(guard.mutable_data(), first_child);
  ++num_nodes_;
  return guard.page_id();
}

Status BTree::Insert(const IndexEntry& entry) {
  if (root_ == kInvalidPageId) {
    EPFIS_ASSIGN_OR_RETURN(root_, NewLeafPage());
    height_ = 1;
  }
  bool split = false;
  IndexEntry promoted;
  PageId new_right = kInvalidPageId;
  EPFIS_RETURN_IF_ERROR(
      InsertRec(root_, entry, &split, &promoted, &new_right));
  if (split) {
    EPFIS_ASSIGN_OR_RETURN(PageId new_root, NewInternalPage(root_));
    EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(new_root));
    BTreeNodeView node(guard.mutable_data());
    node.InsertSeparatorAt(0, promoted, new_right);
    root_ = new_root;
    ++height_;
  }
  ++num_entries_;
  return Status::Ok();
}

Status BTree::InsertRec(PageId page_id, const IndexEntry& entry, bool* split,
                        IndexEntry* promoted, PageId* new_right) {
  *split = false;
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
  BTreeNodeView node(guard.mutable_data());

  if (node.is_leaf()) {
    uint16_t pos = node.LeafLowerBound(entry);
    if (pos < node.count() && node.LeafEntryAt(pos) == entry) {
      return Status::AlreadyExists("duplicate index entry for key " +
                                   std::to_string(entry.key) + " rid " +
                                   entry.rid.ToString());
    }
    if (!node.IsFull()) {
      node.InsertLeafEntryAt(pos, entry);
      return Status::Ok();
    }
    // Split: materialize, redistribute half-and-half.
    std::vector<IndexEntry> all;
    all.reserve(node.count() + 1u);
    for (uint16_t i = 0; i < node.count(); ++i) {
      all.push_back(node.LeafEntryAt(i));
    }
    all.insert(all.begin() + pos, entry);
    size_t mid = all.size() / 2;

    EPFIS_ASSIGN_OR_RETURN(PageId right_pid, NewLeafPage());
    EPFIS_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->FetchPage(right_pid));
    BTreeNodeView right(right_guard.mutable_data());

    node.set_count(0);
    for (size_t i = 0; i < mid; ++i) {
      node.InsertLeafEntryAt(static_cast<uint16_t>(i), all[i]);
    }
    for (size_t i = mid; i < all.size(); ++i) {
      right.InsertLeafEntryAt(static_cast<uint16_t>(i - mid), all[i]);
    }
    right.set_next_leaf(node.next_leaf());
    node.set_next_leaf(right_pid);

    *split = true;
    *promoted = right.LeafEntryAt(0);
    *new_right = right_pid;
    return Status::Ok();
  }

  // Internal node: descend.
  uint16_t child_idx = node.ChildIndexFor(entry);
  PageId child = node.ChildAt(child_idx);
  bool child_split = false;
  IndexEntry child_promoted;
  PageId child_right = kInvalidPageId;
  EPFIS_RETURN_IF_ERROR(
      InsertRec(child, entry, &child_split, &child_promoted, &child_right));
  if (!child_split) return Status::Ok();

  if (!node.IsFull()) {
    node.InsertSeparatorAt(child_idx, child_promoted, child_right);
    return Status::Ok();
  }

  // Split internal: materialize separators+children, insert, redistribute.
  struct SepChild {
    IndexEntry sep;
    PageId right;
  };
  std::vector<SepChild> seps;
  seps.reserve(node.count() + 1u);
  for (uint16_t i = 0; i < node.count(); ++i) {
    seps.push_back(
        {node.SeparatorAt(i), node.ChildAt(static_cast<uint16_t>(i + 1))});
  }
  seps.insert(seps.begin() + child_idx, {child_promoted, child_right});

  size_t mid = seps.size() / 2;  // seps[mid] is promoted upward.
  EPFIS_ASSIGN_OR_RETURN(PageId right_pid,
                         NewInternalPage(seps[mid].right));
  EPFIS_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->FetchPage(right_pid));
  BTreeNodeView right(right_guard.mutable_data());

  node.set_count(0);
  for (size_t i = 0; i < mid; ++i) {
    node.InsertSeparatorAt(static_cast<uint16_t>(i), seps[i].sep,
                           seps[i].right);
  }
  for (size_t i = mid + 1; i < seps.size(); ++i) {
    right.InsertSeparatorAt(static_cast<uint16_t>(i - mid - 1), seps[i].sep,
                            seps[i].right);
  }

  *split = true;
  *promoted = seps[mid].sep;
  *new_right = right_pid;
  return Status::Ok();
}

Status BTree::BulkLoad(std::vector<IndexEntry> entries) {
  if (root_ != kInvalidPageId) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  if (entries.empty()) return Status::Ok();
  std::sort(entries.begin(), entries.end());
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i] == entries[i - 1]) {
      return Status::InvalidArgument("BulkLoad: duplicate entry for key " +
                                     std::to_string(entries[i].key));
    }
  }

  struct LevelNode {
    IndexEntry first;
    PageId page_id;
  };

  // Build the leaf level.
  std::vector<LevelNode> level;
  PageId prev_leaf = kInvalidPageId;
  for (size_t start = 0; start < entries.size();
       start += BTreeNodeView::kLeafCapacity) {
    size_t end =
        std::min(entries.size(), start + BTreeNodeView::kLeafCapacity);
    EPFIS_ASSIGN_OR_RETURN(PageId pid, NewLeafPage());
    EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pid));
    BTreeNodeView leaf(guard.mutable_data());
    for (size_t i = start; i < end; ++i) {
      leaf.SetLeafEntryAt(static_cast<uint16_t>(i - start), entries[i]);
    }
    leaf.set_count(static_cast<uint16_t>(end - start));
    if (prev_leaf != kInvalidPageId) {
      EPFIS_ASSIGN_OR_RETURN(PageGuard prev_guard,
                             pool_->FetchPage(prev_leaf));
      BTreeNodeView(prev_guard.mutable_data()).set_next_leaf(pid);
    }
    prev_leaf = pid;
    level.push_back({entries[start], pid});
  }
  height_ = 1;

  // Build internal levels until one node remains.
  while (level.size() > 1) {
    std::vector<LevelNode> next_level;
    size_t fanout = static_cast<size_t>(BTreeNodeView::kInternalCapacity) + 1;
    for (size_t start = 0; start < level.size(); start += fanout) {
      size_t end = std::min(level.size(), start + fanout);
      // Avoid a trailing group of a single child (it would yield an
      // internal node with zero separators): borrow from this group.
      if (end < level.size() && level.size() - end == 1) --end;
      EPFIS_ASSIGN_OR_RETURN(PageId pid,
                             NewInternalPage(level[start].page_id));
      EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pid));
      BTreeNodeView node(guard.mutable_data());
      for (size_t i = start + 1; i < end; ++i) {
        node.InsertSeparatorAt(static_cast<uint16_t>(i - start - 1),
                               level[i].first, level[i].page_id);
      }
      next_level.push_back({level[start].first, pid});
    }
    level = std::move(next_level);
    ++height_;
  }

  root_ = level.front().page_id;
  num_entries_ = entries.size();
  return Status::Ok();
}

Result<PageId> BTree::FindLeaf(const IndexEntry& entry) const {
  if (root_ == kInvalidPageId) {
    return Status::NotFound("tree is empty");
  }
  PageId page_id = root_;
  for (;;) {
    EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    BTreeNodeView node(const_cast<char*>(guard.data()));
    if (node.is_leaf()) return page_id;
    page_id = node.ChildAt(node.ChildIndexFor(entry));
  }
}

Result<bool> BTree::Contains(const IndexEntry& entry) const {
  if (root_ == kInvalidPageId) return false;
  EPFIS_ASSIGN_OR_RETURN(PageId leaf_pid, FindLeaf(entry));
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(leaf_pid));
  BTreeNodeView leaf(const_cast<char*>(guard.data()));
  uint16_t pos = leaf.LeafLowerBound(entry);
  return pos < leaf.count() && leaf.LeafEntryAt(pos) == entry;
}

Result<BTreeIterator> BTree::Begin() const {
  if (root_ == kInvalidPageId) return BTreeIterator();
  // Descend along first children.
  PageId page_id = root_;
  for (;;) {
    EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    BTreeNodeView node(const_cast<char*>(guard.data()));
    if (node.is_leaf()) break;
    page_id = node.ChildAt(0);
  }
  BTreeIterator it(this, page_id, 0);
  EPFIS_RETURN_IF_ERROR(it.LoadLeaf(page_id, 0));
  return it;
}

Result<BTreeIterator> BTree::SeekGE(const IndexEntry& entry) const {
  if (root_ == kInvalidPageId) return BTreeIterator();
  EPFIS_ASSIGN_OR_RETURN(PageId leaf_pid, FindLeaf(entry));
  uint16_t pos;
  {
    EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(leaf_pid));
    BTreeNodeView leaf(const_cast<char*>(guard.data()));
    pos = leaf.LeafLowerBound(entry);
  }
  BTreeIterator it(this, leaf_pid, pos);
  EPFIS_RETURN_IF_ERROR(it.LoadLeaf(leaf_pid, pos));
  return it;
}

Result<uint32_t> BTree::LeafDepth() const {
  uint32_t depth = 0;
  PageId page_id = root_;
  for (;;) {
    EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
    BTreeNodeView node(const_cast<char*>(guard.data()));
    if (node.is_leaf()) return depth;
    page_id = node.ChildAt(0);
    ++depth;
  }
}

Status BTree::CheckNode(PageId page_id, const IndexEntry* lo,
                        const IndexEntry* hi, uint32_t depth,
                        uint32_t leaf_depth) const {
  EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page_id));
  // Copy out so recursion below does not hold the pin.
  std::vector<char> copy(guard.data(), guard.data() + kPageSize);
  guard.Release();
  BTreeNodeView node(copy.data());

  if (node.is_leaf()) {
    if (depth != leaf_depth) {
      return Status::Corruption("leaves at differing depths");
    }
    for (uint16_t i = 0; i < node.count(); ++i) {
      IndexEntry e = node.LeafEntryAt(i);
      if (i > 0 && !(node.LeafEntryAt(static_cast<uint16_t>(i - 1)) < e)) {
        return Status::Corruption("leaf entries out of order");
      }
      if (lo != nullptr && e < *lo) {
        return Status::Corruption("leaf entry below subtree lower bound");
      }
      if (hi != nullptr && !(e < *hi)) {
        return Status::Corruption("leaf entry above subtree upper bound");
      }
    }
    return Status::Ok();
  }

  if (node.count() == 0) {
    return Status::Corruption("internal node with no separators");
  }
  for (uint16_t i = 0; i < node.count(); ++i) {
    if (i > 0 &&
        !(node.SeparatorAt(static_cast<uint16_t>(i - 1)) < node.SeparatorAt(i))) {
      return Status::Corruption("separators out of order");
    }
  }
  for (uint16_t i = 0; i <= node.count(); ++i) {
    IndexEntry lo_sep, hi_sep;
    const IndexEntry* child_lo = lo;
    const IndexEntry* child_hi = hi;
    if (i > 0) {
      lo_sep = node.SeparatorAt(static_cast<uint16_t>(i - 1));
      child_lo = &lo_sep;
    }
    if (i < node.count()) {
      hi_sep = node.SeparatorAt(i);
      child_hi = &hi_sep;
    }
    EPFIS_RETURN_IF_ERROR(CheckNode(node.ChildAt(i), child_lo, child_hi,
                                    depth + 1, leaf_depth));
  }
  return Status::Ok();
}

Status BTree::CheckIntegrity() const {
  if (root_ == kInvalidPageId) return Status::Ok();
  EPFIS_ASSIGN_OR_RETURN(uint32_t leaf_depth, LeafDepth());
  EPFIS_RETURN_IF_ERROR(CheckNode(root_, nullptr, nullptr, 0, leaf_depth));

  // Verify the leaf chain visits every entry in order.
  EPFIS_ASSIGN_OR_RETURN(BTreeIterator it, Begin());
  uint64_t seen = 0;
  bool first = true;
  IndexEntry prev;
  while (it.Valid()) {
    if (!first && !(prev < it.entry())) {
      return Status::Corruption("leaf chain out of order");
    }
    prev = it.entry();
    first = false;
    ++seen;
    EPFIS_RETURN_IF_ERROR(it.Next());
  }
  if (seen != num_entries_) {
    return Status::Corruption("leaf chain count " + std::to_string(seen) +
                              " != entry count " +
                              std::to_string(num_entries_));
  }
  return Status::Ok();
}

}  // namespace epfis
