#include <gtest/gtest.h>

#include <cmath>

#include "workload/gwl.h"
#include "workload/scan_gen.h"

namespace epfis {
namespace {

TEST(GwlColumnsTest, AllEightColumnsPresent) {
  const auto& columns = GwlColumns();
  ASSERT_EQ(columns.size(), 8u);
  // Table 2/3 spot checks.
  auto bran = GwlColumnByName("CMAC.BRAN");
  ASSERT_TRUE(bran.ok());
  EXPECT_EQ(bran->pages, 774u);
  EXPECT_EQ(bran->records_per_page, 20u);
  EXPECT_EQ(bran->column_cardinality, 131u);
  EXPECT_NEAR(bran->target_clustering, 0.433, 1e-9);

  auto clid = GwlColumnByName("PLON.CLID");
  ASSERT_TRUE(clid.ok());
  EXPECT_EQ(clid->pages, 4857u);
  EXPECT_EQ(clid->records_per_page, 123u);
  EXPECT_EQ(clid->column_cardinality, 437654u);
  EXPECT_NEAR(clid->target_clustering, 0.236, 1e-9);

  EXPECT_FALSE(GwlColumnByName("NOPE").ok());
}

TEST(GwlSynthesisTest, CalibrationHitsTargetClustering) {
  // Scaled-down columns with well-separated targets.
  GwlOptions options;
  options.scale = 0.15;
  options.seed = 11;
  options.tolerance = 0.03;
  for (const char* name : {"CMAC.BRAN", "INAP.UWID"}) {
    auto column = GwlColumnByName(name);
    ASSERT_TRUE(column.ok());
    auto synthesis = SynthesizeGwlColumn(*column, options);
    ASSERT_TRUE(synthesis.ok()) << name;
    EXPECT_NEAR(synthesis->measured_c, column->target_clustering, 0.06)
        << name;
    // Shape matches Table 2 (scaled).
    EXPECT_EQ(synthesis->dataset->records_per_page(),
              column->records_per_page);
    uint32_t expected_pages = static_cast<uint32_t>(
        std::llround(column->pages * options.scale));
    EXPECT_NEAR(synthesis->dataset->num_pages(), expected_pages, 1.0);
  }
}

TEST(GwlSynthesisTest, RejectsBadScale) {
  auto column = GwlColumnByName("CMAC.BRAN");
  ASSERT_TRUE(column.ok());
  GwlOptions options;
  options.scale = 0.0;
  EXPECT_FALSE(SynthesizeGwlColumn(*column, options).ok());
}

class ScanGenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 5000;
    spec.num_distinct = 500;
    spec.records_per_page = 25;
    spec.theta = 0.86;
    spec.window_fraction = 0.2;
    spec.seed = 19;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
  }

  std::unique_ptr<Dataset> dataset_;
};

TEST_F(ScanGenTest, SmallScansCoverAtMostTwentyPercentPlusOneKey) {
  ScanGenerator gen(dataset_.get(), 3);
  for (int i = 0; i < 200; ++i) {
    ScanRange scan = gen.Small();
    EXPECT_GE(scan.num_records, 1u);
    EXPECT_EQ(scan.num_records,
              dataset_->RecordsInRange(scan.lo_key, scan.hi_key));
    EXPECT_LE(scan.lo_key, scan.hi_key);
    // The target r < 0.2; the realized scan can overshoot by at most one
    // key's worth of records (the paper's ">= rN" stopping rule).
    uint64_t max_key_count = 0;
    for (uint64_t c : dataset_->key_counts()) {
      max_key_count = std::max(max_key_count, c);
    }
    EXPECT_LE(scan.num_records,
              static_cast<uint64_t>(0.2 * 5000) + max_key_count);
  }
}

TEST_F(ScanGenTest, LargeScansCoverAtLeastTwentyPercent) {
  ScanGenerator gen(dataset_.get(), 4);
  for (int i = 0; i < 200; ++i) {
    ScanRange scan = gen.Large();
    // r >= 0.2 and the scan covers at least rN records.
    EXPECT_GE(scan.sigma, 0.0);
    EXPECT_GE(scan.num_records, 1u);
    EXPECT_EQ(scan.num_records,
              dataset_->RecordsInRange(scan.lo_key, scan.hi_key));
  }
}

TEST_F(ScanGenTest, FullScanCoversEverything) {
  ScanGenerator gen(dataset_.get(), 5);
  ScanRange scan = gen.Full();
  EXPECT_EQ(scan.lo_key, 1);
  EXPECT_EQ(scan.hi_key, 500);
  EXPECT_EQ(scan.num_records, 5000u);
  EXPECT_DOUBLE_EQ(scan.sigma, 1.0);
}

TEST_F(ScanGenTest, FromFractionMeetsTarget) {
  ScanGenerator gen(dataset_.get(), 6);
  for (double r : {0.01, 0.05, 0.1, 0.3, 0.7, 1.0}) {
    for (int i = 0; i < 20; ++i) {
      ScanRange scan = gen.FromFraction(r);
      EXPECT_GE(scan.num_records,
                static_cast<uint64_t>(std::ceil(r * 5000)) - 0u)
          << "r=" << r;
      EXPECT_DOUBLE_EQ(
          scan.sigma,
          static_cast<double>(scan.num_records) / 5000.0);
    }
  }
}

TEST_F(ScanGenTest, SigmaConsistentWithRecords) {
  ScanGenerator gen(dataset_.get(), 7);
  for (int i = 0; i < 100; ++i) {
    ScanRange scan = gen.Next(ScanMix::kMixed);
    EXPECT_DOUBLE_EQ(scan.sigma, static_cast<double>(scan.num_records) /
                                     static_cast<double>(5000));
  }
}

TEST_F(ScanGenTest, MixedDrawsBothSizes) {
  ScanGenerator gen(dataset_.get(), 8);
  int small = 0, large = 0;
  for (int i = 0; i < 300; ++i) {
    ScanRange scan = gen.Next(ScanMix::kMixed);
    if (scan.sigma <= 0.25) {
      ++small;
    } else {
      ++large;
    }
  }
  EXPECT_GT(small, 50);
  EXPECT_GT(large, 50);
}

TEST_F(ScanGenTest, DeterministicPerSeed) {
  ScanGenerator a(dataset_.get(), 42), b(dataset_.get(), 42);
  for (int i = 0; i < 50; ++i) {
    ScanRange sa = a.Next(ScanMix::kMixed);
    ScanRange sb = b.Next(ScanMix::kMixed);
    EXPECT_EQ(sa.lo_key, sb.lo_key);
    EXPECT_EQ(sa.hi_key, sb.hi_key);
  }
}

TEST(ScanMixNameTest, Names) {
  EXPECT_EQ(ScanMixName(ScanMix::kMixed), "mixed");
  EXPECT_EQ(ScanMixName(ScanMix::kSmallOnly), "small-only");
  EXPECT_EQ(ScanMixName(ScanMix::kLargeOnly), "large-only");
  EXPECT_EQ(ScanMixName(ScanMix::kFullOnly), "full-only");
}

}  // namespace
}  // namespace epfis
