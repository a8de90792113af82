#include <gtest/gtest.h>

#include <vector>

#include "buffer/lru_simulator.h"
#include "buffer/stack_distance.h"
#include "util/random.h"

namespace epfis {
namespace {

TEST(LruSimulatorTest, ColdMissesOnly) {
  LruSimulator sim(3);
  sim.AccessAll({1, 2, 3});
  EXPECT_EQ(sim.fetches(), 3u);
  EXPECT_EQ(sim.accesses(), 3u);
  EXPECT_EQ(sim.resident(), 3u);
}

TEST(LruSimulatorTest, HitsWithinCapacity) {
  LruSimulator sim(2);
  EXPECT_TRUE(sim.Access(1));   // miss
  EXPECT_TRUE(sim.Access(2));   // miss
  EXPECT_FALSE(sim.Access(1));  // hit
  EXPECT_FALSE(sim.Access(2));  // hit
  EXPECT_EQ(sim.fetches(), 2u);
}

TEST(LruSimulatorTest, EvictsLru) {
  LruSimulator sim(2);
  sim.Access(1);
  sim.Access(2);
  sim.Access(1);                // 2 is now LRU.
  EXPECT_TRUE(sim.Access(3));   // evicts 2
  EXPECT_FALSE(sim.Access(1));  // 1 still resident
  EXPECT_TRUE(sim.Access(2));   // 2 was evicted
}

TEST(LruSimulatorTest, CapacityOneThrashes) {
  // The classic sequential thrash: 1,2,1,2,... always misses with B=1.
  LruSimulator sim(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(sim.Access(i % 2 == 0 ? 100 : 200));
  }
  EXPECT_EQ(sim.fetches(), 10u);
}

TEST(LruSimulatorTest, ZeroCapacityClampedToOne) {
  LruSimulator sim(0);
  EXPECT_EQ(sim.capacity(), 1u);
}

TEST(LruSimulatorTest, ResetClearsState) {
  LruSimulator sim(2);
  sim.AccessAll({1, 2, 3});
  sim.Reset();
  EXPECT_EQ(sim.fetches(), 0u);
  EXPECT_EQ(sim.accesses(), 0u);
  EXPECT_TRUE(sim.Access(1));
}

TEST(StackDistanceTest, ColdMissesAndDistinct) {
  StackDistanceSimulator sim;
  sim.AccessAll({5, 6, 7, 5});
  EXPECT_EQ(sim.cold_misses(), 3u);
  EXPECT_EQ(sim.distinct_pages(), 3u);
  EXPECT_EQ(sim.accesses(), 4u);
}

TEST(StackDistanceTest, DistanceOneOnImmediateReuse) {
  StackDistanceSimulator sim;
  sim.AccessAll({1, 1, 1});
  // Two reuses at stack distance 1: any buffer >= 1 holds them.
  EXPECT_EQ(sim.Fetches(1), 1u);
  EXPECT_EQ(sim.Fetches(100), 1u);
}

TEST(StackDistanceTest, HandComputedDistances) {
  // Trace: a b c a. Reuse of a has distance 3 (c, b, a on the stack).
  StackDistanceSimulator sim;
  sim.AccessAll({10, 20, 30, 10});
  EXPECT_EQ(sim.Fetches(3), 3u);  // B=3 holds a: hit.
  EXPECT_EQ(sim.Fetches(2), 4u);  // B=2 evicted a: miss.
  EXPECT_EQ(sim.Fetches(1), 4u);
}

TEST(StackDistanceTest, InclusionPropertyMonotoneFetches) {
  Rng rng(31);
  StackDistanceSimulator sim;
  for (int i = 0; i < 5000; ++i) {
    sim.Access(static_cast<PageId>(rng.NextBounded(100)));
  }
  uint64_t prev = UINT64_MAX;
  for (uint64_t b = 1; b <= 110; ++b) {
    uint64_t f = sim.Fetches(b);
    EXPECT_LE(f, prev) << "b=" << b;
    prev = f;
  }
  // At capacity >= distinct pages, only cold misses remain.
  EXPECT_EQ(sim.Fetches(100), sim.cold_misses());
}

TEST(StackDistanceTest, FetchesForSizesMatchesScalarQueries) {
  Rng rng(9);
  StackDistanceSimulator sim;
  for (int i = 0; i < 2000; ++i) {
    sim.Access(static_cast<PageId>(rng.NextBounded(64)));
  }
  std::vector<uint64_t> sizes = {1, 5, 10, 20, 40, 80};
  std::vector<uint64_t> batch = sim.FetchesForSizes(sizes);
  ASSERT_EQ(batch.size(), sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(batch[i], sim.Fetches(sizes[i]));
  }
}

TEST(StackDistanceTest, GrowsBeyondExpectedRefs) {
  StackDistanceSimulator sim(4);  // Deliberately undersized.
  for (int i = 0; i < 1000; ++i) {
    sim.Access(static_cast<PageId>(i % 10));
  }
  EXPECT_EQ(sim.accesses(), 1000u);
  EXPECT_EQ(sim.Fetches(10), 10u);  // Everything fits: cold misses only.
}

TEST(StackDistanceTest, SequentialScanClusteredPattern) {
  // Perfectly clustered: pages 0..99 in order, 5 refs each. F == 100 for
  // every buffer size (the paper's clustered-index property F == A).
  StackDistanceSimulator sim;
  for (PageId p = 0; p < 100; ++p) {
    for (int r = 0; r < 5; ++r) sim.Access(p);
  }
  for (uint64_t b : {1ULL, 2ULL, 10ULL, 100ULL}) {
    EXPECT_EQ(sim.Fetches(b), 100u) << "b=" << b;
  }
}

}  // namespace
}  // namespace epfis
