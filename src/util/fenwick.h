#ifndef EPFIS_UTIL_FENWICK_H_
#define EPFIS_UTIL_FENWICK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace epfis {

/// Binary indexed tree over int64 values, 0-based external indexing.
/// Used by the Mattson stack-distance simulator to count "live" page slots
/// in O(log n) per reference.
class FenwickTree {
 public:
  explicit FenwickTree(size_t n) : tree_(n + 1, 0) {}

  size_t size() const { return tree_.size() - 1; }

  /// Adds `delta` at position i. Precondition: i < size().
  void Add(size_t i, int64_t delta);

  /// Sum of positions [0, i]. Returns 0 for empty prefix semantics via
  /// PrefixSum(i) with i = npos handled by caller; i must be < size().
  int64_t PrefixSum(size_t i) const;

  /// Sum of positions [lo, hi]; returns 0 if lo > hi.
  int64_t RangeSum(size_t lo, size_t hi) const;

  /// Total sum of all positions.
  int64_t Total() const;

  /// Grows the tree to at least `n` positions, preserving contents.
  void Resize(size_t n);

  /// Discards the contents and reinitializes to `n` positions with
  /// positions [0, ones) set to 1 and the rest 0, in O(n) — the shape the
  /// stack-distance kernel needs after compacting live last-access
  /// positions into a dense prefix. Precondition: ones <= n.
  void AssignPrefixOnes(size_t ones, size_t n);

 private:
  std::vector<int64_t> tree_;  // 1-based internal layout.
};

}  // namespace epfis

#endif  // EPFIS_UTIL_FENWICK_H_
