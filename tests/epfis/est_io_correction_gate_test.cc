// Regression tests for two Est-IO edge cases:
//
//  1. The validating entry points must reject buffer_pages == 0 with
//     InvalidArgument (a scan with no buffer cannot be costed by the FPF
//     model) instead of silently evaluating the curve at B = 0.
//  2. The §4.2 correction gate: the Cardenas term is added iff nu = 1,
//     where nu = 1 iff phi >= nu_threshold * sigma, and the damping factor
//     min(1, phi / (divisor * sigma)) shares the same phi. Pinned
//     table-driven against hand-computed values of the paper's Equation 1
//     on both sides of the gate boundary, in both phi interpretations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "epfis/est_io.h"
#include "util/formulas.h"

namespace epfis {
namespace {

// Same catalog entry as est_io_test.cc: 1000-page, 40000-record table,
// FPF falling from 30000 fetches at B=12 to 1000 at B=T.
IndexStats MakeStats(double clustering = 0.5) {
  IndexStats stats;
  stats.index_name = "gate_test";
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

TEST(EstIoCorrectionGateTest, ZeroBufferPagesIsInvalidArgument) {
  IndexStats stats = MakeStats();

  ScanSpec scan;
  scan.sigma = 0.5;
  scan.sargable_selectivity = 1.0;
  scan.buffer_pages = 0;
  auto estimate = EstIo::Estimate(stats, scan);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kInvalidArgument);

  // One buffer page is the smallest valid request and must succeed.
  scan.buffer_pages = 1;
  EXPECT_TRUE(EstIo::Estimate(stats, scan).ok());
}

struct GateCase {
  const char* name;
  PhiMode phi_mode;
  double nu_threshold;
  double sigma;
  uint64_t buffer_pages;
  double clustering;
  bool expect_correction;  // Whether nu should be 1 for these inputs.
};

TEST(EstIoCorrectionGateTest, NuGateMatchesEquationOneOnBothSides) {
  // phi depends only on B/T: with B <= T the paper's phi = max(1, B/T) is
  // always 1, so the kPaperMax gate reduces to sigma <= 1/nu_threshold;
  // the kMin reading phi = min(1, B/T) = B/T makes the gate genuinely
  // buffer-dependent. The boundary itself (phi == nu_threshold * sigma)
  // counts as inside the gate (>=).
  const GateCase kCases[] = {
      {"paper_phi_below_gate", PhiMode::kPaperMax, 3.0, 1.0 / 3.0, 500, 0.2,
       true},
      {"paper_phi_above_gate", PhiMode::kPaperMax, 3.0, 0.34, 500, 0.2,
       false},
      {"paper_phi_small_sigma", PhiMode::kPaperMax, 3.0, 0.01, 500, 0.2,
       true},
      {"min_phi_below_gate", PhiMode::kMin, 3.0, 0.15, 500, 0.2, true},
      {"min_phi_above_gate", PhiMode::kMin, 3.0, 0.2, 500, 0.2, false},
      {"min_phi_tiny_buffer", PhiMode::kMin, 3.0, 0.15, 100, 0.2, false},
      {"custom_threshold_admits", PhiMode::kPaperMax, 2.0, 0.4, 500, 0.2,
       true},
      {"custom_threshold_rejects", PhiMode::kPaperMax, 4.0, 0.3, 500, 0.2,
       false},
      {"clustered_correction_vanishes", PhiMode::kPaperMax, 3.0, 0.01, 500,
       1.0, true},  // nu = 1 but (1 - C) = 0: correction contributes 0.
  };

  for (const GateCase& c : kCases) {
    SCOPED_TRACE(c.name);
    IndexStats stats = MakeStats(c.clustering);
    EstIoOptions options;
    options.phi_mode = c.phi_mode;
    options.nu_threshold = c.nu_threshold;

    ScanSpec scan;
    scan.sigma = c.sigma;
    scan.sargable_selectivity = 1.0;
    scan.buffer_pages = c.buffer_pages;

    auto result = EstIo::Estimate(stats, scan, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Hand-evaluate Equation 1 (§4.2) for the same inputs.
    double t = 1000.0;
    double n = 40000.0;
    double ratio = static_cast<double>(c.buffer_pages) / t;
    double phi = c.phi_mode == PhiMode::kPaperMax ? std::max(1.0, ratio)
                                                  : std::min(1.0, ratio);
    double nu = phi >= c.nu_threshold * c.sigma ? 1.0 : 0.0;
    EXPECT_EQ(nu == 1.0, c.expect_correction);
    double damping =
        std::min(1.0, phi / (options.correction_divisor * c.sigma));
    double base =
        c.sigma * stats.FullScanFetches(static_cast<double>(c.buffer_pages));
    double expected = base + nu * damping * (1.0 - c.clustering) *
                                 CardenasPages(t, c.sigma * n);
    expected = Clamp(expected, 0.0, c.sigma * n);
    EXPECT_NEAR(*result, expected, 1e-9);

    // The gate must change the estimate exactly when it admits the term
    // (unless clustering already zeroes it out).
    EstIoOptions no_correction = options;
    no_correction.enable_correction = false;
    auto without = EstIo::Estimate(stats, scan, no_correction);
    ASSERT_TRUE(without.ok());
    double base_clamped = Clamp(base, 0.0, c.sigma * n);
    EXPECT_NEAR(*without, base_clamped, 1e-9);
    if (c.expect_correction && c.clustering < 1.0) {
      EXPECT_GT(*result, *without);
    } else {
      EXPECT_NEAR(*result, *without, 1e-9);
    }
  }
}

TEST(EstIoCorrectionGateTest, GateAndDampingShareTheSamePhi) {
  // Worked example pinned end to end: sigma = 0.3, C = 0, B = 500,
  // paper phi = max(1, 500/1000) = 1.
  //   nu      = 1                  (gate: 1 >= 3 * 0.3 = 0.9 holds)
  //   damping = min(1, 1 / (6 * 0.3)) = 1/1.8
  //   base    = 0.3 * PF_500
  //   correction = nu * damping * (1 - 0) * Cardenas(1000, 12000)
  IndexStats stats = MakeStats(0.0);
  ScanSpec scan;
  scan.sigma = 0.3;
  scan.sargable_selectivity = 1.0;
  scan.buffer_pages = 500;
  auto result = EstIo::Estimate(stats, scan);
  ASSERT_TRUE(result.ok());

  double pf_500 = stats.FullScanFetches(500.0);
  // Interpolated on the (300, 6000)-(600, 2500) segment: 6000 - 3500*2/3.
  EXPECT_NEAR(pf_500, 11000.0 / 3.0, 1e-9);
  double expected =
      0.3 * pf_500 + (1.0 / 1.8) * CardenasPages(1000.0, 0.3 * 40000.0);
  EXPECT_NEAR(*result, expected, 1e-9);
}

}  // namespace
}  // namespace epfis
