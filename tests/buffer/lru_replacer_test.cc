#include "buffer/lru_replacer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/random.h"

namespace epfis {
namespace {

TEST(LruReplacerTest, EvictsLeastRecentlyUsed) {
  LruReplacer replacer;
  for (FrameId f : {0u, 1u, 2u}) {
    replacer.RecordAccess(f);
    replacer.SetEvictable(f, true);
  }
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(0));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(2));
  EXPECT_EQ(replacer.Evict(), std::nullopt);
}

TEST(LruReplacerTest, RecordAccessMovesToMru) {
  LruReplacer replacer;
  for (FrameId f : {0u, 1u, 2u}) {
    replacer.RecordAccess(f);
    replacer.SetEvictable(f, true);
  }
  replacer.RecordAccess(0);  // 0 becomes most recent.
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(2));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(0));
}

TEST(LruReplacerTest, PinnedFramesSkipped) {
  LruReplacer replacer;
  for (FrameId f : {0u, 1u, 2u}) {
    replacer.RecordAccess(f);
    replacer.SetEvictable(f, true);
  }
  replacer.SetEvictable(0, false);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  replacer.SetEvictable(0, true);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(0));
}

TEST(LruReplacerTest, AllPinnedYieldsNullopt) {
  LruReplacer replacer;
  replacer.RecordAccess(0);
  replacer.SetEvictable(0, false);
  EXPECT_EQ(replacer.Evict(), std::nullopt);
}

TEST(LruReplacerTest, RemoveDropsFrame) {
  LruReplacer replacer;
  replacer.RecordAccess(0);
  replacer.SetEvictable(0, true);
  replacer.RecordAccess(1);
  replacer.SetEvictable(1, true);
  replacer.Remove(0);
  EXPECT_EQ(replacer.num_tracked(), 1u);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  replacer.Remove(42);  // Unknown frame: no-op.
}

TEST(LruReplacerTest, SetEvictableOnUnknownFrameRegistersIt) {
  LruReplacer replacer;
  replacer.SetEvictable(7, true);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(7));
}

/// Naive O(n) reference: a vector in LRU order (front = least recent) of
/// (frame, evictable) pairs, written straight from the Replacer contract.
class NaiveLru {
 public:
  void RecordAccess(FrameId frame) {
    auto it = Find(frame);
    bool evictable = false;
    if (it != order_.end()) {
      evictable = it->second;
      order_.erase(it);
    }
    order_.emplace_back(frame, evictable);
  }
  void SetEvictable(FrameId frame, bool evictable) {
    if (Find(frame) == order_.end()) RecordAccess(frame);
    Find(frame)->second = evictable;
  }
  std::optional<FrameId> Evict() {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->second) {
        FrameId victim = it->first;
        order_.erase(it);
        return victim;
      }
    }
    return std::nullopt;
  }
  void Remove(FrameId frame) {
    auto it = Find(frame);
    if (it != order_.end()) order_.erase(it);
  }
  size_t size() const { return order_.size(); }

 private:
  std::vector<std::pair<FrameId, bool>>::iterator Find(FrameId frame) {
    return std::find_if(order_.begin(), order_.end(),
                        [frame](const auto& e) { return e.first == frame; });
  }
  std::vector<std::pair<FrameId, bool>> order_;
};

TEST(LruReplacerTest, RandomOperationsMatchNaiveReference) {
  // Interleaved operations over a small frame space, so calls on unknown,
  // pinned, evicted and removed frames all occur often.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    LruReplacer replacer;
    NaiveLru naive;
    for (int op = 0; op < 20000; ++op) {
      FrameId frame = rng.NextBounded(24);
      switch (rng.NextBounded(4)) {
        case 0:
          replacer.RecordAccess(frame);
          naive.RecordAccess(frame);
          break;
        case 1: {
          bool evictable = rng.NextBounded(3) != 0;
          replacer.SetEvictable(frame, evictable);
          naive.SetEvictable(frame, evictable);
          break;
        }
        case 2:
          ASSERT_EQ(replacer.Evict(), naive.Evict())
              << "seed " << seed << " op " << op;
          break;
        default:
          replacer.Remove(frame);
          naive.Remove(frame);
          break;
      }
      ASSERT_EQ(replacer.num_tracked(), naive.size())
          << "seed " << seed << " op " << op;
    }
    // Drain: the remaining evictable frames leave in the same order.
    for (;;) {
      std::optional<FrameId> victim = naive.Evict();
      ASSERT_EQ(replacer.Evict(), victim) << "seed " << seed;
      if (!victim.has_value()) break;
    }
  }
}

}  // namespace
}  // namespace epfis
