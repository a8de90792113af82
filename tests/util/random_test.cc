#include "util/random.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace epfis {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 6000; ++i) counts[rng.NextBounded(6)]++;
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [value, count] : counts) {
    // Expected 1000 each; allow wide slack.
    EXPECT_GT(count, 700) << "value " << value;
    EXPECT_LT(count, 1300) << "value " << value;
  }
}

TEST(RngTest, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliRateApproximatesP) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBernoulli(0.05)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.05, 0.01);
}

}  // namespace
}  // namespace epfis
