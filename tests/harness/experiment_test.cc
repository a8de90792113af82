#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/figures.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

std::unique_ptr<Dataset> MakeDataset(double k, double theta = 0.0,
                                     uint64_t seed = 71) {
  // Paper-proportioned dataset (N/I = 100, as in §5.2), scaled down 50x.
  SyntheticSpec spec;
  spec.num_records = 20000;
  spec.num_distinct = 200;
  spec.records_per_page = 20;
  spec.theta = theta;
  spec.window_fraction = k;
  spec.seed = seed;
  auto dataset = GenerateSynthetic(spec);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_scans = 40;
  config.min_buffer_pages = 30;  // T = 1000 here; paper's 300 would clamp.
  config.seed = 9;
  return config;
}

TEST(SweepBufferSizesTest, PaperDefaults) {
  ExperimentConfig config;  // min 300, 5%..90% step 5%.
  auto sizes =
      SweepBufferSizes(20000, PaperBufferFractions(), config.min_buffer_pages);
  ASSERT_EQ(sizes.size(), 18u);
  EXPECT_EQ(sizes.front(), 1000u);  // 5% of 20000.
  EXPECT_EQ(sizes.back(), 18000u);  // 90%.
}

TEST(SweepBufferSizesTest, SmallTableClampsToMinBuffer) {
  ExperimentConfig config;
  auto sizes =
      SweepBufferSizes(1000, PaperBufferFractions(), config.min_buffer_pages);
  // max(300, 0.05*1000) = 300 for the first several fractions; dedup
  // leaves 300 once, then 350, 400, ..., 900.
  EXPECT_EQ(sizes.front(), 300u);
  EXPECT_EQ(sizes.back(), 900u);
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], sizes[i - 1]);
  }
}

TEST(SweepBufferSizesTest, NeverExceedsTableSize) {
  ExperimentConfig config;
  auto sizes =
      SweepBufferSizes(200, PaperBufferFractions(), config.min_buffer_pages);
  for (uint64_t b : sizes) EXPECT_LE(b, 200u);
}

TEST(ExperimentTest, RunsAndReportsAllFiveAlgorithms) {
  auto dataset = MakeDataset(0.1);
  auto result = RunErrorExperiment(*dataset, SmallConfig());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->algorithms.size(), 5u);
  EXPECT_EQ(result->algorithms[0].name, "EPFIS");
  EXPECT_EQ(result->algorithms[1].name, "ML");
  EXPECT_EQ(result->algorithms[2].name, "DC");
  EXPECT_EQ(result->algorithms[3].name, "SD");
  EXPECT_EQ(result->algorithms[4].name, "OT");
  for (const AlgorithmErrors& algo : result->algorithms) {
    EXPECT_EQ(algo.error_pct.size(), result->buffer_sizes.size());
    for (double e : algo.error_pct) EXPECT_TRUE(std::isfinite(e));
  }
  EXPECT_GT(result->total_actual_fetches, 0u);
}

TEST(ExperimentTest, EpfisErrorIsSmallOnHeadlineWorkload) {
  // The paper's headline claim: EPFIS errors stay low across the whole
  // buffer sweep (max 48% on its synthetic datasets) and stable.
  for (double k : {0.05, 0.5}) {
    auto dataset = MakeDataset(k);
    auto result = RunErrorExperiment(*dataset, SmallConfig());
    ASSERT_TRUE(result.ok());
    EXPECT_LT(MaxAbsErrorPct(*result, "EPFIS"), 50.0) << "k=" << k;
  }
}

TEST(ExperimentTest, EpfisDominatesBaselinesOnUnclusteredData) {
  auto dataset = MakeDataset(0.5);
  auto result = RunErrorExperiment(*dataset, SmallConfig());
  ASSERT_TRUE(result.ok());
  double epfis = MaxAbsErrorPct(*result, "EPFIS");
  // EPFIS should beat the cluster-ratio heuristics clearly on unclustered
  // data (the paper's figures show order-of-magnitude gaps).
  EXPECT_LT(epfis, MaxAbsErrorPct(*result, "DC"));
  EXPECT_LT(epfis, MaxAbsErrorPct(*result, "OT"));
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto dataset = MakeDataset(0.2);
  auto r1 = RunErrorExperiment(*dataset, SmallConfig());
  auto r2 = RunErrorExperiment(*dataset, SmallConfig());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t a = 0; a < r1->algorithms.size(); ++a) {
    EXPECT_EQ(r1->algorithms[a].error_pct, r2->algorithms[a].error_pct);
  }
}

TEST(ExperimentTest, StatsAreConsistentWithDataset) {
  auto dataset = MakeDataset(0.1);
  auto result = RunErrorExperiment(*dataset, SmallConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.table_pages, dataset->num_pages());
  EXPECT_EQ(result->stats.table_records, dataset->num_records());
  EXPECT_EQ(result->stats.distinct_keys, dataset->num_distinct());
  EXPECT_GE(result->stats.clustering, 0.0);
  EXPECT_LE(result->stats.clustering, 1.0);
  EXPECT_EQ(result->trace_stats.table_records, dataset->num_records());
}

TEST(ExperimentTest, FullOnlyScanMixWorks) {
  auto dataset = MakeDataset(0.3);
  ExperimentConfig config = SmallConfig();
  config.mix = ScanMix::kFullOnly;
  config.num_scans = 3;
  auto result = RunErrorExperiment(*dataset, config);
  ASSERT_TRUE(result.ok());
  // For full scans EPFIS interpolates the measured full-scan curve. The
  // residual is bounded by the segment fit; at this scale the paper's
  // sqrt-spaced schedule yields only ~16 samples (vs ~79 at paper scale),
  // so interpolation across the window knee can err by ~15-20% between
  // samples. Nearly exact at the sampled sizes, bounded in between.
  EXPECT_LT(MaxAbsErrorPct(*result, "EPFIS"), 25.0);
}

TEST(ExperimentTest, SargableSelectivityRuns) {
  auto dataset = MakeDataset(0.3);
  ExperimentConfig config = SmallConfig();
  config.num_scans = 20;
  config.sargable_selectivity = 0.3;
  auto result = RunErrorExperiment(*dataset, config);
  ASSERT_TRUE(result.ok());
  // The urn model is a coarse heuristic (the paper never validates it
  // experimentally); require sane, finite errors — and that EPFIS's urn
  // model is no worse than the linear S-scaling the baselines fall back
  // to, on at least one of the cluster-ratio baselines.
  double epfis = MaxAbsErrorPct(*result, "EPFIS");
  EXPECT_LT(epfis, 200.0);
  EXPECT_LT(epfis, std::max(MaxAbsErrorPct(*result, "DC"),
                            MaxAbsErrorPct(*result, "OT")));
}

TEST(ExperimentTest, RejectsZeroScans) {
  auto dataset = MakeDataset(0.1);
  ExperimentConfig config;
  config.num_scans = 0;
  EXPECT_FALSE(RunErrorExperiment(*dataset, config).ok());
}

TEST(FiguresTest, PrintExperimentTableContainsAlgorithms) {
  auto dataset = MakeDataset(0.1);
  ExperimentConfig config = SmallConfig();
  config.num_scans = 5;
  auto result = RunErrorExperiment(*dataset, config);
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  PrintExperimentTable(*result, os);
  std::string out = os.str();
  for (const char* name : {"EPFIS", "ML", "DC", "SD", "OT", "buffer%"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

TEST(FiguresTest, SummaryAndMaxError) {
  auto dataset = MakeDataset(0.1);
  ExperimentConfig config = SmallConfig();
  config.num_scans = 5;
  auto result = RunErrorExperiment(*dataset, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(MaxAbsErrorPct(*result, "EPFIS"), 0.0);
  EXPECT_EQ(MaxAbsErrorPct(*result, "NOPE"), -1.0);
  std::string summary = SummarizeMaxErrors(*result);
  EXPECT_NE(summary.find("EPFIS"), std::string::npos);
  EXPECT_NE(summary.find("max|err|"), std::string::npos);
}

}  // namespace
}  // namespace epfis
