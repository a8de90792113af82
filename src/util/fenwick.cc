#include "util/fenwick.h"

namespace epfis {

void FenwickTree::Add(size_t i, int64_t delta) {
  for (size_t p = i + 1; p < tree_.size(); p += p & (~p + 1)) {
    tree_[p] += delta;
  }
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

}  // namespace epfis
