#include "harness/figures.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "baselines/ml.h"
#include "catalog/stats_catalog.h"
#include "exec/multi_index.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

ExperimentResult TinyResult() {
  ExperimentResult result;
  result.buffer_sizes = {10, 20};
  result.buffer_pct = {10.0, 20.0};
  result.algorithms = {AlgorithmErrors{"EPFIS", {1.5, -2.5}, {2.0, 3.0}},
                       AlgorithmErrors{"ML", {30.0, 40.0}, {35.0, 45.0}}};
  return result;
}

TEST(FiguresOutputTest, CsvAppendsWithHeaderOnce) {
  std::string path = testing::TempDir() + "/epfis_figures_test.csv";
  std::remove(path.c_str());
  ExperimentResult result = TinyResult();
  ASSERT_TRUE(WriteExperimentCsv(result, "labelA", path).ok());
  ASSERT_TRUE(WriteExperimentCsv(result, "labelB", path).ok());

  std::ifstream in(path);
  std::string line;
  int header_rows = 0, data_rows = 0;
  while (std::getline(in, line)) {
    if (line.rfind("label,", 0) == 0) {
      ++header_rows;
    } else if (!line.empty()) {
      ++data_rows;
    }
  }
  EXPECT_EQ(header_rows, 1);
  EXPECT_EQ(data_rows, 2 * 2 * 2);  // 2 labels x 2 buffers x 2 algorithms.
  std::remove(path.c_str());
}

TEST(FiguresOutputTest, NormalizedFpfCurvePrintsRatios) {
  std::ostringstream os;
  std::vector<FpfPoint> points = {{10, 500}, {100, 100}};
  PrintNormalizedFpfCurve("test.idx", points, 100, os);
  std::string out = os.str();
  EXPECT_NE(out.find("test.idx"), std::string::npos);
  EXPECT_NE(out.find("5.000"), std::string::npos);  // F/T at B=10.
  EXPECT_NE(out.find("1.000"), std::string::npos);  // F/T at B=T.
}

TEST(MlEdgeTest, KeyValuesClampedToCardinality) {
  MlEstimator ml(100, 10000, 50);
  // x beyond I clamps: sigma > 1 treated as full.
  EXPECT_DOUBLE_EQ(ml.Estimate({5.0, 100}), ml.Estimate({1.0, 100}));
}

TEST(MlEdgeTest, DegenerateSinglePageTable) {
  MlEstimator ml(1, 100, 10);
  double est = ml.Estimate({0.5, 1});
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 1.0 + 1e-9);
}

TEST(MultiIndexEdgeTest, EmptyRangesYieldEmptyResults) {
  SyntheticSpec spec;
  spec.num_records = 2000;
  spec.num_distinct = 50;
  spec.secondary_distinct = 10;
  spec.records_per_page = 20;
  spec.seed = 191;
  auto dataset = GenerateSynthetic(spec);
  ASSERT_TRUE(dataset.ok());
  auto pool = (*dataset)->MakeDataPool(8);
  auto result = RunMultiIndexScan(
      *(*dataset)->index(), KeyRange::Closed(900, 999), *(*dataset)->index2(),
      KeyRange::Closed(1, 10), IndexCombineOp::kAnd, *(*dataset)->table(),
      pool.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rids_from_first, 0u);
  EXPECT_EQ(result->rids_combined, 0u);
  EXPECT_EQ(result->data_page_fetches, 0u);
}

TEST(StatsCatalogEdgeTest, EntryWithoutCurveRoundTrips) {
  StatsCatalog catalog;
  IndexStats stats;
  stats.index_name = "curveless";
  stats.table_pages = 10;
  stats.table_records = 100;
  catalog.Put(stats);
  StatsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromString(catalog.SaveToStringV3()).ok());
  auto got = loaded.Get("curveless");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->fpf.has_value());
  EXPECT_EQ(got->FullScanFetches(5.0), 0.0);
}

}  // namespace
}  // namespace epfis
