#include "util/fenwick.h"

namespace epfis {

void FenwickTree::Add(size_t i, int64_t delta) {
  for (size_t p = i + 1; p < tree_.size(); p += p & (~p + 1)) {
    tree_[p] += delta;
  }
}

void FenwickTree::MovePair(size_t from, size_t to) {
  size_t n = tree_.size();
  size_t p1 = from + 1;  // -1 path.
  size_t p2 = to + 1;    // +1 path.
  while (p1 != p2) {
    // The smaller index walking past the end implies the larger is out of
    // range too — both tails are gone, nothing left to apply.
    if (p1 < p2) {
      if (p1 >= n) return;
      tree_[p1] -= 1;
      p1 += p1 & (~p1 + 1);
    } else {
      if (p2 >= n) return;
      tree_[p2] += 1;
      p2 += p2 & (~p2 + 1);
    }
  }
  // p1 == p2: the rest of the path is shared and cancels exactly.
}

int64_t FenwickTree::PrefixSum(size_t i) const {
  int64_t sum = 0;
  for (size_t p = i + 1; p > 0; p -= p & (~p + 1)) {
    sum += tree_[p];
  }
  return sum;
}

int64_t FenwickTree::RangeSum(size_t lo, size_t hi) const {
  if (lo > hi) return 0;
  int64_t high = PrefixSum(hi);
  int64_t low = (lo == 0) ? 0 : PrefixSum(lo - 1);
  return high - low;
}

int64_t FenwickTree::Total() const {
  return tree_.empty() ? 0 : PrefixSum(tree_.size() - 2);
}

void FenwickTree::Resize(size_t n) {
  if (n + 1 <= tree_.size()) return;
  // Rebuild in O(old + new): down-convert the tree to point values in
  // place (the exact inverse of the bottom-up build — subtracting each
  // node from its parent leaves node i holding the value at position
  // i - 1), then re-run the build over the widened array. The legacy
  // simulator grows its time axis by doubling, so a doubling rebuild
  // must be linear, not O(n log n) per-point extraction.
  std::vector<int64_t> values = std::move(tree_);
  for (size_t i = values.size() - 1; i >= 1; --i) {
    size_t parent = i + (i & (~i + 1));
    if (parent < values.size()) values[parent] -= values[i];
  }
  tree_.assign(n + 1, 0);
  for (size_t i = 1; i < values.size(); ++i) tree_[i] = values[i];
  for (size_t i = 1; i <= n; ++i) {
    size_t parent = i + (i & (~i + 1));
    if (parent <= n) tree_[parent] += tree_[i];
  }
}

void FenwickTree::AssignPrefixOnes(size_t ones, size_t n) {
  tree_.assign(n + 1, 0);
  for (size_t i = 1; i <= ones; ++i) tree_[i] = 1;
  // Standard O(n) bottom-up build: fold each node into its parent.
  for (size_t i = 1; i <= n; ++i) {
    size_t parent = i + (i & (~i + 1));
    if (parent <= n) tree_[parent] += tree_[i];
  }
}

}  // namespace epfis
