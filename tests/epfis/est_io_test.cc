#include "epfis/est_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "epfis/lru_fit.h"
#include "exec/optimizer.h"
#include "obs/metrics.h"
#include "util/formulas.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

// Catalog entry for a mildly unclustered index over a 1000-page,
// 40000-record table: FPF falls from 30000 fetches at B=12 to 1000 at B=T.
IndexStats MakeStats(double clustering = 0.5) {
  IndexStats stats;
  stats.index_name = "test";
  stats.table_pages = 1000;
  stats.table_records = 40000;
  stats.distinct_keys = 2000;
  stats.pages_accessed = 1000;
  stats.b_min = 12;
  stats.b_max = 1000;
  stats.f_min = 30000;
  stats.clustering = clustering;
  stats.fpf = PiecewiseLinear::FromKnots({{12, 30000},
                                          {100, 15000},
                                          {300, 6000},
                                          {600, 2500},
                                          {1000, 1000}})
                  .value();
  return stats;
}

double Estimate(const IndexStats& stats, const ScanSpec& scan,
                const EstIoOptions& options = {}) {
  return EstIo::Estimate(stats, scan, options).value();
}

double FullScan(const IndexStats& stats, uint64_t buffer_pages) {
  return stats.FullScanFetches(static_cast<double>(buffer_pages));
}

TEST(EstIoTest, FullScanFollowsCurve) {
  IndexStats stats = MakeStats();
  EXPECT_NEAR(FullScan(stats, 12), 30000, 1e-9);
  EXPECT_NEAR(FullScan(stats, 100), 15000, 1e-9);
  EXPECT_NEAR(FullScan(stats, 200), 10500, 1e-9);  // Interp.
  EXPECT_NEAR(FullScan(stats, 1000), 1000, 1e-9);
}

TEST(EstIoTest, ZeroSelectivityIsZero) {
  IndexStats stats = MakeStats();
  EXPECT_EQ(Estimate(stats, {0.0, 1.0, 500}), 0.0);
}

TEST(EstIoTest, FullScanSigmaOneMatchesCurveValue) {
  IndexStats stats = MakeStats();
  // sigma = 1: nu triggers only if phi >= 3, impossible with B <= T under
  // the paper's phi = max(1, B/T); estimate is exactly PF_B.
  ScanSpec scan{1.0, 1.0, 300};
  EXPECT_NEAR(Estimate(stats, scan), 6000.0, 1e-9);
}

TEST(EstIoTest, LargeSigmaScalesLinearly) {
  IndexStats stats = MakeStats();
  // sigma = 0.5 > 1/3: correction off; estimate = sigma * PF_B.
  ScanSpec scan{0.5, 1.0, 300};
  EXPECT_NEAR(Estimate(stats, scan), 3000.0, 1e-9);
}

TEST(EstIoTest, SmallSigmaGetsCorrection) {
  IndexStats stats = MakeStats(0.2);  // Quite unclustered.
  double sigma = 0.01;
  uint64_t b = 500;
  double base = sigma * FullScan(stats, b);
  double est = Estimate(stats, {sigma, 1.0, b});
  EXPECT_GT(est, base);  // Correction term added.

  // Hand-compute Equation 1: phi = max(1, 0.5) = 1, nu = 1 (1 >= 0.03),
  // damping = min(1, 1/(6*0.01)) = 1.
  double cardenas = CardenasPages(1000.0, sigma * 40000.0);
  double expected = base + 1.0 * (1.0 - 0.2) * cardenas;
  EXPECT_NEAR(est, expected, 1e-9);
}

TEST(EstIoTest, CorrectionDampedNearThreshold) {
  IndexStats stats = MakeStats(0.0);
  // sigma = 0.3: nu = 1 (1 >= 0.9), damping = min(1, 1/1.8) = 0.5556.
  double sigma = 0.3;
  double est = Estimate(stats, {sigma, 1.0, 500});
  double base = sigma * FullScan(stats, 500);
  double damping = 1.0 / (6.0 * sigma);
  double cardenas = CardenasPages(1000.0, sigma * 40000.0);
  EXPECT_NEAR(est, base + damping * cardenas, 1e-9);
}

TEST(EstIoTest, NoCorrectionAboveNuThreshold) {
  IndexStats stats = MakeStats(0.0);
  // sigma = 0.4 > 1/3: nu = 0 under phi = 1.
  double est = Estimate(stats, {0.4, 1.0, 500});
  EXPECT_NEAR(est, 0.4 * FullScan(stats, 500), 1e-9);
}

TEST(EstIoTest, ClusteredIndexGetsNoCorrection) {
  IndexStats stats = MakeStats(1.0);  // (1 - C) = 0 kills the term.
  double sigma = 0.01;
  double est = Estimate(stats, {sigma, 1.0, 500});
  EXPECT_NEAR(est, sigma * FullScan(stats, 500), 1e-9);
}

TEST(EstIoTest, CorrectionCanBeDisabled) {
  IndexStats stats = MakeStats(0.0);
  EstIoOptions options;
  options.enable_correction = false;
  double est = Estimate(stats, {0.01, 1.0, 500}, options);
  EXPECT_NEAR(est, 0.01 * FullScan(stats, 500), 1e-9);
}

TEST(EstIoTest, PhiMinModeShrinksCorrectionForSmallBuffers) {
  IndexStats stats = MakeStats(0.0);
  EstIoOptions min_mode;
  min_mode.phi_mode = PhiMode::kMin;
  // B/T = 0.6, sigma = 0.15: both modes trigger nu, but min-mode damping
  // is 0.6/0.9 < 1 while max-mode damping saturates at 1. (sigma is large
  // enough that the final estimate stays below the qualifying-records
  // clamp in both modes.)
  double est_max = Estimate(stats, {0.15, 1.0, 600});
  double est_min = Estimate(stats, {0.15, 1.0, 600}, min_mode);
  EXPECT_LT(est_min, est_max);
  // And with sigma large relative to B/T, min-mode disables nu entirely:
  // phi_min = 0.6 < 3 * 0.25 while phi_max = 1 >= 0.75.
  double est_min2 = Estimate(stats, {0.25, 1.0, 600}, min_mode);
  EXPECT_NEAR(est_min2, 0.25 * FullScan(stats, 600), 1e-9);
  double est_max2 = Estimate(stats, {0.25, 1.0, 600});
  EXPECT_GT(est_max2, est_min2);
}

TEST(EstIoTest, SargablePredicateReducesEstimate) {
  IndexStats stats = MakeStats(0.5);
  ScanSpec plain{0.2, 1.0, 500};
  ScanSpec filtered{0.2, 0.1, 500};
  double est_plain = Estimate(stats, plain);
  double est_filtered = Estimate(stats, filtered);
  EXPECT_LT(est_filtered, est_plain);
  EXPECT_GT(est_filtered, 0.0);
}

TEST(EstIoTest, SargableMatchesUrnFormula) {
  IndexStats stats = MakeStats(0.5);
  double sigma = 0.5, s = 0.25;
  uint64_t b = 300;
  double base = Estimate(stats, {sigma, 1.0, b});
  double t = 1000, n = 40000, c = 0.5;
  double q = c * sigma * t + (1 - c) * std::min(t, sigma * n);
  double k = s * sigma * n;
  double factor = 1.0 - std::pow(1.0 - 1.0 / q, k);
  EXPECT_NEAR(Estimate(stats, {sigma, s, b}), base * factor, 1e-6 * base);
}

TEST(EstIoTest, NeverExceedsQualifyingRecords) {
  IndexStats stats = MakeStats(0.0);
  for (double sigma : {0.001, 0.01, 0.1, 0.5, 1.0}) {
    for (double s : {0.01, 0.5, 1.0}) {
      for (uint64_t b : {12ULL, 100ULL, 1000ULL}) {
        double est = Estimate(stats, {sigma, s, b});
        EXPECT_LE(est, sigma * s * 40000.0 + 1e-9)
            << "sigma=" << sigma << " s=" << s << " b=" << b;
        EXPECT_GE(est, 0.0);
      }
    }
  }
}

TEST(EstIoTest, MonotoneInBufferSizeForFullScans) {
  IndexStats stats = MakeStats();
  double prev = 1e300;
  for (uint64_t b = 12; b <= 1000; b += 50) {
    double est = Estimate(stats, {1.0, 1.0, b});
    EXPECT_LE(est, prev + 1e-9) << "b=" << b;
    prev = est;
  }
}

TEST(EstIoTest, MissingCurveYieldsZeroFullScan) {
  IndexStats stats;  // No fpf set.
  stats.table_pages = 10;
  stats.table_records = 100;
  EXPECT_EQ(stats.FullScanFetches(5.0), 0.0);
}

TEST(EstIoValidatingTest, RejectsOutOfDomainSigma) {
  IndexStats stats = MakeStats();
  for (double sigma : {-0.1, 1.5, std::nan("")}) {
    ScanSpec scan{sigma, 1.0, 300};
    auto result = EstIo::Estimate(stats, scan);
    EXPECT_FALSE(result.ok()) << "sigma=" << sigma;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // The boundary values 0 and 1 are legal.
  EXPECT_TRUE(EstIo::Estimate(stats, ScanSpec{0.0, 1.0, 300}).ok());
  EXPECT_TRUE(EstIo::Estimate(stats, ScanSpec{1.0, 1.0, 300}).ok());
}

TEST(EstIoValidatingTest, RejectsOutOfDomainSargableSelectivity) {
  IndexStats stats = MakeStats();
  for (double sarg : {0.0, -0.5, 1.2, std::nan("")}) {
    ScanSpec scan{0.5, sarg, 300};
    auto result = EstIo::Estimate(stats, scan);
    EXPECT_FALSE(result.ok()) << "sarg=" << sarg;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(EstIo::Estimate(stats, ScanSpec{0.5, 1.0, 300}).ok());
}

TEST(EstIoValidatingTest, RejectsZeroBufferPages) {
  IndexStats stats = MakeStats();
  EXPECT_EQ(EstIo::Estimate(stats, ScanSpec{0.5, 1.0, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EstIoValidatingTest, RejectsBadOptionThresholds) {
  IndexStats stats = MakeStats();
  ScanSpec scan{0.5, 1.0, 300};
  for (double bad : {0.0, -3.0, std::nan("")}) {
    EstIoOptions options;
    options.nu_threshold = bad;
    auto result = EstIo::Estimate(stats, scan, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "nu_threshold=" << bad;

    options = EstIoOptions{};
    options.correction_divisor = bad;
    result = EstIo::Estimate(stats, scan, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "correction_divisor=" << bad;
  }
  // Unusual but positive values are accepted.
  EstIoOptions loose;
  loose.nu_threshold = 0.5;
  loose.correction_divisor = 100.0;
  EXPECT_TRUE(EstIo::Estimate(stats, scan, loose).ok());
}

TEST(EstIoValidatingTest, BadOptionsRejectedOnEveryEntryPoint) {
  IndexStats stats = MakeStats();
  EstIoOptions bad;
  bad.correction_divisor = 0.0;
  ScanSpec scan{0.5, 1.0, 300};
  TableShape shape{1000, 40000};

  auto snapshot = CatalogSnapshot::Build({{"test", stats}}, {}, 1);
  EXPECT_EQ(EstIo::EstimateFromCatalog(*snapshot, "test", scan, shape, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  BatchProbe probe{snapshot->Resolve("test"), scan, shape};
  CatalogEstimate out;
  EXPECT_EQ(EstIo::EstimateBatch(*snapshot, {&probe, 1}, {&out, 1}, bad)
                .code(),
            StatusCode::kInvalidArgument);
}

// Est-IO tallies its counters per call or batch instead of per branch;
// the totals must still match a hand count of which branches fire.
TEST(EstIoCountersTest, FixedProbesAdvanceCountersByHandCount) {
#if !EPFIS_METRICS_ENABLED
  GTEST_SKIP() << "built with EPFIS_METRICS=OFF; counters stay at zero";
#endif
  // T = 100, N = 10000, fully unclustered; PF_B = 100 at B = T.
  IndexStats stats;
  stats.index_name = "counted";
  stats.table_pages = 100;
  stats.table_records = 10000;
  stats.pages_accessed = 100;
  stats.clustering = 0.0;
  stats.fpf = PiecewiseLinear::FromKnots({{1, 10000}, {100, 100}}).value();
  const std::vector<ScanSpec> probes = {
      {1.0, 1.0, 100},     // phi = 1 < 3 sigma: the formula alone.
      {0.1, 1.0, 100},     // Correction: 10 + Cardenas(100, 1000) < 1000.
      {1.0, 0.5, 100},     // Sargable reduction (Q = 100, k = 5000).
      {0.0001, 1.0, 100},  // Correction, then clamped to one record.
      {0.0, 1.0, 100},     // sigma = 0: counted, no branch fires.
  };
  const char* const kNames[] = {"est_io.estimates",
                                "est_io.correction_applied",
                                "est_io.sargable_reductions",
                                "est_io.clamped_at_qualifying",
                                "est_io.rejected",
                                "est_io.batches",
                                "est_io.batch_probes",
                                "est_io.degraded"};
  auto counts = [&] {
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    std::vector<uint64_t> out;
    for (const char* name : kNames) out.push_back(snapshot.counters[name]);
    return out;
  };
  auto advanced = [&](const std::vector<uint64_t>& before) {
    std::vector<uint64_t> after = counts();
    for (size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };

  std::vector<uint64_t> before = counts();
  for (const ScanSpec& scan : probes) {
    ASSERT_TRUE(EstIo::Estimate(stats, scan).ok());
  }
  EXPECT_EQ(advanced(before),
            (std::vector<uint64_t>{5, 2, 1, 1, 0, 0, 0, 0}));

  auto snapshot = CatalogSnapshot::Build({{"counted", stats}}, {}, 1);
  std::vector<BatchProbe> batch;
  for (const ScanSpec& scan : probes) {
    batch.push_back(BatchProbe{snapshot->Resolve("counted"), scan, {}});
  }
  batch.push_back(BatchProbe{snapshot->Resolve("counted"), {2.0, 1.0, 100},
                             {}});  // Rejected: sigma > 1.
  std::vector<CatalogEstimate> results(batch.size());
  before = counts();
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, batch, results).ok());
  EXPECT_EQ(advanced(before),
            (std::vector<uint64_t>{5, 2, 1, 1, 1, 1, 6, 0}));

  before = counts();
  ASSERT_TRUE(
      EstIo::EstimateFromCatalog(*snapshot, "counted", probes[3], {}).ok());
  EXPECT_EQ(advanced(before),
            (std::vector<uint64_t>{1, 1, 0, 1, 0, 0, 0, 0}));
}

// Choose costs each index plan with one EstIo::Estimate on the published
// snapshot's view, not through the batch path.
TEST(EstIoCountersTest, ChooseCountsOneEstimatePerIndexPlanAndNoBatch) {
#if !EPFIS_METRICS_ENABLED
  GTEST_SKIP() << "built with EPFIS_METRICS=OFF; counters stay at zero";
#endif
  SyntheticSpec spec;
  spec.num_records = 4000;
  spec.num_distinct = 100;
  spec.records_per_page = 20;
  spec.seed = 7;
  auto dataset = GenerateSynthetic(spec);
  ASSERT_TRUE(dataset.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", (*dataset)->table()).ok());
  auto trace = (*dataset)->FullIndexPageTrace();
  ASSERT_TRUE(trace.ok());
  // Two indexes on the predicate column: two index plans per Choose.
  for (const std::string name : {"t.a", "t.b"}) {
    ASSERT_TRUE(
        catalog.RegisterIndex(name, "t", 0, (*dataset)->index()).ok());
    auto stats = RunLruFit(*trace, (*dataset)->num_pages(),
                           (*dataset)->num_distinct(), name);
    ASSERT_TRUE(stats.ok());
    catalog.stats().Put(std::move(stats).value());
  }
  ASSERT_TRUE(catalog.stats().Publish().ok());

  Query query;
  query.table = "t";
  query.column = 0;
  query.range = KeyRange::Closed(1, 10);
  query.sigma = 0.1;
  AccessPathOptimizer optimizer(&catalog);
  auto count = [](const char* name) {
    return MetricsRegistry::Global().Snapshot().counters[name];
  };
  uint64_t estimates = count("est_io.estimates");
  uint64_t batches = count("est_io.batches");
  uint64_t batch_probes = count("est_io.batch_probes");
  constexpr int kChooses = 10;
  for (int i = 0; i < kChooses; ++i) {
    ASSERT_TRUE(optimizer.Choose(query, 50).ok());
  }
  EXPECT_EQ(count("est_io.estimates") - estimates, 2u * kChooses);
  EXPECT_EQ(count("est_io.batches"), batches);
  EXPECT_EQ(count("est_io.batch_probes"), batch_probes);
}

}  // namespace
}  // namespace epfis
