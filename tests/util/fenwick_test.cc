#include "util/fenwick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace epfis {
namespace {

TEST(FenwickTest, EmptyTreeSumsToZero) {
  FenwickTree tree(10);
  EXPECT_EQ(tree.PrefixSum(9), 0);
}

TEST(FenwickTest, PointUpdatesAndPrefixSums) {
  FenwickTree tree(8);
  tree.Add(0, 3);
  tree.Add(3, 5);
  tree.Add(7, -2);
  EXPECT_EQ(tree.PrefixSum(0), 3);
  EXPECT_EQ(tree.PrefixSum(2), 3);
  EXPECT_EQ(tree.PrefixSum(3), 8);
  EXPECT_EQ(tree.PrefixSum(6), 8);
  EXPECT_EQ(tree.PrefixSum(7), 6);
}

TEST(FenwickTest, RangeSum) {
  FenwickTree tree(10);
  for (size_t i = 0; i < 10; ++i) tree.Add(i, static_cast<int64_t>(i));
  EXPECT_EQ(tree.RangeSum(0, 9), 45);
  EXPECT_EQ(tree.RangeSum(3, 5), 3 + 4 + 5);
  EXPECT_EQ(tree.RangeSum(5, 5), 5);
  EXPECT_EQ(tree.RangeSum(6, 3), 0);  // Inverted range.
}

TEST(FenwickTest, MatchesNaiveOnRandomWorkload) {
  const size_t n = 200;
  FenwickTree tree(n);
  std::vector<int64_t> naive(n, 0);
  Rng rng(21);
  for (int op = 0; op < 2000; ++op) {
    size_t i = static_cast<size_t>(rng.NextBounded(n));
    int64_t delta = static_cast<int64_t>(rng.NextBounded(11)) - 5;
    tree.Add(i, delta);
    naive[i] += delta;

    size_t lo = static_cast<size_t>(rng.NextBounded(n));
    size_t hi = static_cast<size_t>(rng.NextBounded(n));
    if (lo > hi) std::swap(lo, hi);
    int64_t expected = 0;
    for (size_t j = lo; j <= hi; ++j) expected += naive[j];
    ASSERT_EQ(tree.RangeSum(lo, hi), expected) << "op " << op;
  }
}

TEST(FenwickTest, ResizePreservesContents) {
  FenwickTree tree(4);
  tree.Add(0, 1);
  tree.Add(3, 7);
  tree.Resize(16);
  EXPECT_EQ(tree.size(), 16u);
  EXPECT_EQ(tree.RangeSum(0, 3), 8);
  tree.Add(10, 2);
  EXPECT_EQ(tree.PrefixSum(15), 10);
}

TEST(FenwickTest, ResizeSmallerIsNoOp) {
  FenwickTree tree(8);
  tree.Add(5, 5);
  tree.Resize(2);
  EXPECT_EQ(tree.size(), 8u);
  EXPECT_EQ(tree.RangeSum(5, 5), 5);
}

TEST(FenwickTest, ResizePreservesRandomContents) {
  // The O(n) rebuild must preserve every point value across repeated
  // geometric growth, interleaved with updates — the exact usage pattern
  // of the streaming merge's live axis.
  Rng rng(47);
  size_t n = 3;
  FenwickTree tree(n);
  std::vector<int64_t> naive(n, 0);
  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 60; ++op) {
      size_t i = static_cast<size_t>(rng.NextBounded(n));
      int64_t delta = static_cast<int64_t>(rng.NextBounded(9)) - 4;
      tree.Add(i, delta);
      naive[i] += delta;
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(tree.RangeSum(i, i), naive[i]) << "round " << round;
    }
    n = n * 2 + 1;
    tree.Resize(n);
    naive.resize(n, 0);
    ASSERT_EQ(tree.size(), n);
  }
}

}  // namespace
}  // namespace epfis
