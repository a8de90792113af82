#include "index/btree_node.h"

#include <cstring>

namespace epfis {
namespace {

void EncodeEntry(char* p, const IndexEntry& e) {
  std::memcpy(p, &e.key, 8);
  std::memcpy(p + 8, &e.rid.page_id, 4);
  std::memcpy(p + 12, &e.rid.slot, 2);
}

IndexEntry DecodeEntry(const char* p) {
  IndexEntry e;
  std::memcpy(&e.key, p, 8);
  std::memcpy(&e.rid.page_id, p + 8, 4);
  std::memcpy(&e.rid.slot, p + 12, 2);
  return e;
}

}  // namespace

BTreeNodeView BTreeNodeView::InitLeaf(char* data) {
  std::memset(data, 0, kPageSize);
  BTreeNodeView node(data);
  data[0] = 1;
  node.set_count(0);
  node.set_next_leaf(kInvalidPageId);
  return node;
}

BTreeNodeView BTreeNodeView::InitInternal(char* data, PageId first_child) {
  std::memset(data, 0, kPageSize);
  BTreeNodeView node(data);
  data[0] = 0;
  node.set_count(0);
  node.set_first_child(first_child);
  return node;
}

bool BTreeNodeView::is_leaf() const { return data_[0] != 0; }

uint16_t BTreeNodeView::count() const {
  uint16_t c;
  std::memcpy(&c, data_ + 2, 2);
  return c;
}

void BTreeNodeView::set_count(uint16_t count) {
  std::memcpy(data_ + 2, &count, 2);
}

PageId BTreeNodeView::next_leaf() const {
  PageId p;
  std::memcpy(&p, data_ + 4, 4);
  return p;
}

void BTreeNodeView::set_next_leaf(PageId page_id) {
  std::memcpy(data_ + 4, &page_id, 4);
}

PageId BTreeNodeView::first_child() const { return next_leaf(); }

void BTreeNodeView::set_first_child(PageId page_id) {
  set_next_leaf(page_id);
}

char* BTreeNodeView::LeafEntryPtr(uint16_t i) const {
  return data_ + kHeaderSize + static_cast<size_t>(i) * kLeafEntrySize;
}

char* BTreeNodeView::InternalEntryPtr(uint16_t i) const {
  return data_ + kHeaderSize + static_cast<size_t>(i) * kInternalEntrySize;
}

IndexEntry BTreeNodeView::LeafEntryAt(uint16_t i) const {
  return DecodeEntry(LeafEntryPtr(i));
}

void BTreeNodeView::SetLeafEntryAt(uint16_t i, const IndexEntry& entry) {
  EncodeEntry(LeafEntryPtr(i), entry);
}

void BTreeNodeView::InsertLeafEntryAt(uint16_t i, const IndexEntry& entry) {
  uint16_t n = count();
  if (i < n) {
    std::memmove(LeafEntryPtr(i + 1), LeafEntryPtr(i),
                 static_cast<size_t>(n - i) * kLeafEntrySize);
  }
  EncodeEntry(LeafEntryPtr(i), entry);
  set_count(static_cast<uint16_t>(n + 1));
}

uint16_t BTreeNodeView::LeafLowerBound(const IndexEntry& entry) const {
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (LeafEntryAt(mid) < entry) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

IndexEntry BTreeNodeView::SeparatorAt(uint16_t i) const {
  return DecodeEntry(InternalEntryPtr(i));
}

PageId BTreeNodeView::ChildAt(uint16_t i) const {
  if (i == 0) return first_child();
  PageId p;
  std::memcpy(&p, InternalEntryPtr(static_cast<uint16_t>(i - 1)) + 14, 4);
  return p;
}

void BTreeNodeView::InsertSeparatorAt(uint16_t i, const IndexEntry& separator,
                                      PageId right_child) {
  uint16_t n = count();
  if (i < n) {
    std::memmove(InternalEntryPtr(static_cast<uint16_t>(i + 1)),
                 InternalEntryPtr(i),
                 static_cast<size_t>(n - i) * kInternalEntrySize);
  }
  char* p = InternalEntryPtr(i);
  EncodeEntry(p, separator);
  std::memcpy(p + 14, &right_child, 4);
  set_count(static_cast<uint16_t>(n + 1));
}

uint16_t BTreeNodeView::ChildIndexFor(const IndexEntry& entry) const {
  // upper_bound over separators: first separator > entry; descend left.
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (entry < SeparatorAt(mid)) {
      hi = mid;
    } else {
      lo = static_cast<uint16_t>(mid + 1);
    }
  }
  return lo;  // Child index: entries >= separator lo-1 go to child lo.
}

}  // namespace epfis
