#include "util/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "util/random.h"

namespace epfis {
namespace {

using PageMap = FlatHashMap<PageId, uint64_t, kInvalidPageId>;

TEST(FlatHashTest, InsertFindUpdateBasics) {
  PageMap map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(7), nullptr);

  auto [v1, inserted1] = map.TryEmplace(7, 100);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*v1, 100u);
  EXPECT_EQ(map.size(), 1u);

  // A hit leaves the stored value untouched (try_emplace semantics).
  auto [v2, inserted2] = map.TryEmplace(7, 999);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 100u);
  EXPECT_EQ(map.size(), 1u);

  *map.Find(7) = 42;
  EXPECT_EQ(*map.Find(7), 42u);
}

TEST(FlatHashTest, KeyZeroIsARegularKey) {
  PageMap map;
  EXPECT_TRUE(map.TryEmplace(0, 11).second);
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 11u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashTest, GrowsThroughManyRehashes) {
  PageMap map;  // Default capacity, forcing repeated doubling.
  constexpr uint32_t kN = 100'000;
  for (uint32_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(map.TryEmplace(k, uint64_t{k} * 3).second);
  }
  EXPECT_EQ(map.size(), kN);
  for (uint32_t k = 0; k < kN; ++k) {
    const uint64_t* v = map.Find(k);
    ASSERT_NE(v, nullptr) << k;
    ASSERT_EQ(*v, uint64_t{k} * 3) << k;
  }
  EXPECT_EQ(map.Find(kN), nullptr);
}

// The satellite property test: randomized insert/find workloads agree
// with std::unordered_map at every step, across key ranges that force
// heavy collisions (tiny universe) and steady growth (large universe).
TEST(FlatHashTest, MatchesUnorderedMapUnderRandomWorkloads) {
  for (uint32_t universe : {16u, 1'000u, 1u << 20}) {
    for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      PageMap map;
      std::unordered_map<PageId, uint64_t> ref;
      Rng rng(seed);
      for (int op = 0; op < 20'000; ++op) {
        PageId key = static_cast<PageId>(rng.NextBounded(universe));
        uint64_t roll = rng.NextBounded(3);
        if (roll == 0) {
          // Insert-if-absent.
          auto [v, inserted] = map.TryEmplace(key, static_cast<uint64_t>(op));
          auto [it, ref_inserted] = ref.try_emplace(key, static_cast<uint64_t>(op));
          ASSERT_EQ(inserted, ref_inserted);
          ASSERT_EQ(*v, it->second);
        } else if (roll == 1) {
          // Find.
          uint64_t* v = map.Find(key);
          auto it = ref.find(key);
          ASSERT_EQ(v != nullptr, it != ref.end());
          if (v != nullptr) {
            ASSERT_EQ(*v, it->second);
          }
        } else {
          // Update-if-present.
          uint64_t* v = map.Find(key);
          auto it = ref.find(key);
          ASSERT_EQ(v != nullptr, it != ref.end());
          if (v != nullptr) {
            *v = static_cast<uint64_t>(op) + 7;
            it->second = static_cast<uint64_t>(op) + 7;
          }
        }
        ASSERT_EQ(map.size(), ref.size());
      }
    }
  }
}

TEST(FlatHashTest, AdjacentKeysCollideGracefully) {
  // Sequential page ids are the common trace shape; make sure linear
  // probing over a dense key block stays correct through a rehash.
  PageMap map(4);
  for (uint32_t k = 100; k < 4'100; ++k) {
    ASSERT_TRUE(map.TryEmplace(k, k).second);
  }
  for (uint32_t k = 100; k < 4'100; ++k) {
    ASSERT_NE(map.Find(k), nullptr);
    ASSERT_EQ(*map.Find(k), k);
  }
  EXPECT_EQ(map.Find(99), nullptr);
  EXPECT_EQ(map.Find(4'100), nullptr);
}

TEST(FlatHashTest, EraseBasics) {
  PageMap map;
  EXPECT_FALSE(map.Erase(7));  // Absent key on an empty table.
  map.TryEmplace(7, 70);
  map.TryEmplace(8, 80);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(8), nullptr);
  EXPECT_EQ(*map.Find(8), 80u);
  EXPECT_FALSE(map.Erase(7));  // Double erase is a no-op.
  // The slot is genuinely free again (no tombstone): re-insert works.
  EXPECT_TRUE(map.TryEmplace(7, 71).second);
  EXPECT_EQ(*map.Find(7), 71u);
}

TEST(FlatHashTest, EraseShiftsDisplacedRuns) {
  // Backward-shift deletion must keep displaced keys findable. A tiny
  // table plus a dense key block guarantees long probe runs, so erasing
  // from the middle of a run exercises the shift logic hard.
  PageMap map(4);
  for (uint32_t k = 0; k < 64; ++k) map.TryEmplace(k, k * 10);
  for (uint32_t k = 0; k < 64; k += 3) EXPECT_TRUE(map.Erase(k));
  for (uint32_t k = 0; k < 64; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(map.Find(k), nullptr) << k;
    } else {
      ASSERT_NE(map.Find(k), nullptr) << k;
      EXPECT_EQ(*map.Find(k), k * 10) << k;
    }
  }
}

TEST(FlatHashTest, EraseMatchesUnorderedMapUnderRandomWorkloads) {
  // The insert/find fuzz above, extended with erases — the workload the
  // buffer pool's page table runs.
  for (uint32_t universe : {16u, 1'000u, 1u << 20}) {
    for (uint64_t seed : {4ULL, 5ULL}) {
      PageMap map;
      std::unordered_map<PageId, uint64_t> ref;
      Rng rng(seed);
      for (int op = 0; op < 20'000; ++op) {
        PageId key = static_cast<PageId>(rng.NextBounded(universe));
        uint64_t roll = rng.NextBounded(4);
        if (roll == 0) {
          auto [v, inserted] = map.TryEmplace(key, static_cast<uint64_t>(op));
          auto [it, ref_inserted] =
              ref.try_emplace(key, static_cast<uint64_t>(op));
          ASSERT_EQ(inserted, ref_inserted);
          ASSERT_EQ(*v, it->second);
        } else if (roll == 1) {
          ASSERT_EQ(map.Erase(key), ref.erase(key) > 0);
        } else {
          uint64_t* v = map.Find(key);
          auto it = ref.find(key);
          ASSERT_EQ(v != nullptr, it != ref.end());
          if (v != nullptr) {
            ASSERT_EQ(*v, it->second);
          }
        }
        ASSERT_EQ(map.size(), ref.size());
      }
      // Full sweep at the end: with the sizes equal, every reference
      // entry found with its value means the contents agree exactly.
      for (const auto& [key, value] : ref) {
        const uint64_t* v = map.Find(key);
        ASSERT_NE(v, nullptr) << key;
        ASSERT_EQ(*v, value) << key;
      }
    }
  }
}

}  // namespace
}  // namespace epfis
