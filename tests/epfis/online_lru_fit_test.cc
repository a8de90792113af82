// Online LRU-Fit: the streaming engine (DESIGN.md §14) and its drift
// policy. The convergence tests pin the engine to the batch subprogram it
// replaces — a stationary stream must reproduce the batch FPF curve — and
// the concurrency test drills the RCU contract: a publish storm must never
// block or corrupt concurrent EstimateBatch readers (run under TSan in CI).

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/decayed_window.h"
#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "epfis/online_lru_fit.h"
#include "util/fault.h"
#include "util/random.h"
#include "util/zipf.h"

namespace epfis {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<PageId> MakeZipfTrace(size_t refs, uint64_t pages, double theta,
                                  uint64_t seed) {
  Rng rng(seed);
  auto zipf = ZipfDistribution::Make(pages, theta);
  EXPECT_TRUE(zipf.ok());
  std::vector<PageId> trace(refs);
  for (size_t i = 0; i < refs; ++i) {
    trace[i] = static_cast<PageId>(zipf->Sample(rng) - 1);
  }
  return trace;
}

// ---------------------------------------------------------------------------
// DriftDetector policy boundaries.

TEST(DriftDetectorTest, ErrorExactlyAtBandNeverTriggers) {
  DriftDetector detector(DriftDetectorOptions{0.05, 1});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(detector.Observe(0.05));  // At the band, not above it.
    EXPECT_EQ(detector.streak(), 0);
  }
  EXPECT_TRUE(detector.Observe(0.05000001));
}

TEST(DriftDetectorTest, SingleInBandCheckResetsPatience) {
  DriftDetector detector(DriftDetectorOptions{0.05, 3});
  EXPECT_FALSE(detector.Observe(0.2));
  EXPECT_FALSE(detector.Observe(0.2));
  EXPECT_EQ(detector.streak(), 2);
  EXPECT_FALSE(detector.Observe(0.01));  // One healthy check wipes the streak.
  EXPECT_EQ(detector.streak(), 0);
  EXPECT_FALSE(detector.Observe(0.2));
  EXPECT_FALSE(detector.Observe(0.2));
  EXPECT_TRUE(detector.Observe(0.2));
}

TEST(DriftDetectorTest, NanLeavesStreakUnchanged) {
  DriftDetector detector(DriftDetectorOptions{0.05, 3});
  EXPECT_FALSE(detector.Observe(0.2));
  EXPECT_FALSE(detector.Observe(0.2));
  EXPECT_FALSE(detector.Observe(kNaN));  // No measurement: not evidence
  EXPECT_EQ(detector.streak(), 2);       // of drift, nor of health.
  EXPECT_TRUE(std::isnan(detector.last_error()));
  EXPECT_TRUE(detector.Observe(0.2));
}

TEST(DriftDetectorTest, NanBeforeAnyEvidenceStaysQuiet) {
  DriftDetector detector(DriftDetectorOptions{0.0, 1});
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(detector.Observe(kNaN));
    EXPECT_EQ(detector.streak(), 0);
  }
}

// ---------------------------------------------------------------------------
// Fractional tail queries on the decayed window.

TEST(DecayedReuseWindowTest, TailWeightAtInterpolatesBetweenBuckets) {
  DecayedReuseWindow window(1'000'000);  // Huge W: no visible decay.
  StackDistanceHistogram hist;
  hist.AddColdMiss();
  hist.AddDistances(1, 4);
  hist.AddDistances(2, 10);
  hist.AddDistances(5, 6);
  SamplingSummary summary;
  summary.total_refs = hist.accesses();
  window.Absorb(hist, summary);

  // At integer boundaries the fractional query is exactly the integer one.
  for (uint64_t b = 0; b <= 7; ++b) {
    EXPECT_DOUBLE_EQ(window.TailWeightAt(static_cast<double>(b)),
                     window.TailWeight(b))
        << "b=" << b;
  }
  EXPECT_DOUBLE_EQ(window.TailWeight(0), 20.0);
  EXPECT_DOUBLE_EQ(window.TailWeight(1), 16.0);

  // Between b and b+1 the boundary sweeps bucket b+1 linearly: at 0.25 a
  // quarter of bucket 1's weight (4) has left the tail.
  EXPECT_DOUBLE_EQ(window.TailWeightAt(0.25), 20.0 - 0.25 * 4.0);
  EXPECT_DOUBLE_EQ(window.TailWeightAt(1.5), 16.0 - 0.5 * 10.0);
  EXPECT_DOUBLE_EQ(window.TailWeightAt(4.75), 6.0 - 0.75 * 6.0);

  // Monotone non-increasing in b, even across empty buckets, and zero
  // (not negative) past the deepest bucket.
  double prev = window.TailWeightAt(0.0);
  for (double b = 0.1; b < 8.0; b += 0.1) {
    double cur = window.TailWeightAt(b);
    EXPECT_LE(cur, prev + 1e-12) << "b=" << b;
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(window.TailWeightAt(6.5), 0.0);
  EXPECT_DOUBLE_EQ(window.TailWeightAt(-1.0), window.TailWeight(0));
}

TEST(DriftDetectorTest, PatienceOneTriggersOnFirstExcursion) {
  DriftDetector detector(DriftDetectorOptions{0.05, 1});
  EXPECT_FALSE(detector.Observe(0.04));
  EXPECT_TRUE(detector.Observe(0.06));
}

TEST(DriftDetectorTest, TriggerPersistsUntilExplicitReset) {
  // A failed publish must not eat the evidence: the detector keeps
  // triggering until the caller resets after a *successful* publish.
  DriftDetector detector(DriftDetectorOptions{0.05, 2});
  EXPECT_FALSE(detector.Observe(0.2));
  EXPECT_TRUE(detector.Observe(0.2));
  EXPECT_TRUE(detector.Observe(0.2));
  detector.ResetStreak();
  EXPECT_FALSE(detector.Observe(0.2));
}

// ---------------------------------------------------------------------------
// Option validation.

TEST(OnlineLruFitOptionsTest, RejectsDegenerateKnobs) {
  OnlineLruFitOptions options;
  options.table_pages = 100;
  EXPECT_TRUE(options.Validate().ok());

  OnlineLruFitOptions bad = options;
  bad.table_pages = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = options;
  bad.window_refs = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = options;
  bad.refresh_interval = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = options;
  bad.drift.patience = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = options;
  bad.drift.band = kNaN;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = options;
  bad.sample_rate = 0.0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Convergence against batch LRU-Fit.

TEST(OnlineLruFitTest, OneShotExactRefreshReproducesBatchCurve) {
  // One exact (unsampled) refresh absorbing the whole history: the window
  // tail ratio collapses algebraically to the batch formula, so the
  // published entry must match batch LRU-Fit on the same trace to within
  // floating-point rounding.
  std::vector<PageId> trace = MakeZipfTrace(40000, 400, 0.8, 11);

  auto batch = RunLruFit(trace, 400, 100, "ix");
  ASSERT_TRUE(batch.ok());

  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = 400;
  options.distinct_keys = 100;
  options.window_refs = trace.size() * 100;  // Negligible decay.
  options.refresh_interval = trace.size();   // Exactly one refresh, at the end.
  OnlineLruFit engine("ix", options, &catalog);
  ASSERT_TRUE(engine.Ingest(trace).ok());
  ASSERT_EQ(engine.refreshes(), 1u);
  ASSERT_EQ(engine.publishes(), 1u);  // Bootstrap.

  auto online = catalog.Get("ix");
  ASSERT_TRUE(online.ok());
  EXPECT_EQ(online->table_records, batch->table_records);
  EXPECT_EQ(online->pages_accessed, batch->pages_accessed);
  EXPECT_EQ(online->b_min, batch->b_min);
  EXPECT_EQ(online->b_max, batch->b_max);
  EXPECT_EQ(online->f_min, batch->f_min);
  EXPECT_EQ(online->online_generation, 1u);
  EXPECT_EQ(online->window_refs, options.window_refs);
  for (uint64_t b = online->b_min; b <= online->b_max; b += 7) {
    double expected = batch->FullScanFetches(static_cast<double>(b));
    EXPECT_NEAR(online->FullScanFetches(static_cast<double>(b)), expected,
                1e-6 * expected + 1e-6)
        << "buffer size " << b;
  }
}

TEST(OnlineLruFitTest, StationaryStreamConvergesToBatch) {
  // A stationary stream, windowed and refreshed many times, must land
  // within the sampling error band of the batch curve. Two claims, each
  // against the matching reference so the band stays tight:
  //   1. exact-mode online vs exact batch — pure windowing error;
  //   2. fixed-rate online vs batch at the *same* rate — the streaming
  //      estimator adds almost nothing on top of the sampling noise the
  //      batch estimator already carries (at the smallest knots a
  //      rate-0.1 batch run itself sits ~9% off exact, which is why the
  //      sampled curve is not compared against the exact one directly).
  const uint64_t kPages = 2000;
  std::vector<PageId> trace = MakeZipfTrace(200000, kPages, 0.8, 29);

  auto batch = RunLruFit(trace, kPages, 500, "ix");  // Exact reference.
  ASSERT_TRUE(batch.ok());
  LruFitOptions sampled_fit;
  sampled_fit.sample_rate = 0.1;
  auto batch_sampled = RunLruFit(trace, kPages, 500, "ixs", sampled_fit);
  ASSERT_TRUE(batch_sampled.ok());

  auto run_online = [&](double rate, StatsCatalog* catalog) {
    OnlineLruFitOptions options;
    options.table_pages = kPages;
    options.distinct_keys = 500;
    options.window_refs = 100000;
    options.refresh_interval = 20000;
    options.sample_rate = rate;
    auto engine = std::make_unique<OnlineLruFit>("ix", options, catalog);
    EXPECT_TRUE(engine->Ingest(trace).ok());
    EXPECT_EQ(engine->refreshes(), 10u);
    return engine;
  };
  StatsCatalog exact_catalog;
  StatsCatalog sampled_catalog;
  auto exact_engine = run_online(1.0, &exact_catalog);
  auto sampled_engine = run_online(0.1, &sampled_catalog);

  auto max_rel_err = [&](const IndexStats& got, const IndexStats& want,
                         double span) {
    uint64_t b_hi = want.b_min + static_cast<uint64_t>(
                                     span * static_cast<double>(want.b_max -
                                                                want.b_min));
    double max_err = 0.0;
    for (uint64_t b = want.b_min; b <= b_hi;
         b += std::max<uint64_t>((want.b_max - want.b_min) / 40, 1)) {
      double ref = want.FullScanFetches(static_cast<double>(b));
      if (!(ref > 0.0)) continue;
      max_err = std::max(
          max_err,
          std::abs(got.FullScanFetches(static_cast<double>(b)) - ref) / ref);
    }
    return max_err;
  };

  auto live_exact = exact_engine->BuildStats();
  ASSERT_TRUE(live_exact.ok());
  EXPECT_LE(max_rel_err(*live_exact, *batch, 1.0), 0.032)
      << "exact windowed curve drifted from batch";

  // The sampled comparison stops at 80% of the knot span: in the deepest
  // tail (buffers approaching the table size) the reference's own
  // rescale quantization error dominates a shrinking denominator — the
  // windowed curve actually sits *closer* to the exact batch there.
  //
  // The band against the equally-sampled batch is a little wider than the
  // exact-mode one: the live estimator answers fractional-boundary tail
  // queries (TailWeightAt), while the batch reference rescales onto a
  // round-to-nearest staircase, so the two legitimately disagree by up to
  // a bucket fraction between bucket centers. The second assertion pins
  // what actually matters — the interpolated live curve must track the
  // exact truth at least as well as that staircase reference does.
  auto live_sampled = sampled_engine->BuildStats();
  ASSERT_TRUE(live_sampled.ok());
  EXPECT_LE(max_rel_err(*live_sampled, *batch_sampled, 0.8), 0.06)
      << "sampled windowed curve drifted from the equally-sampled batch";
  EXPECT_LE(max_rel_err(*live_sampled, *batch, 0.8),
            max_rel_err(*batch_sampled, *batch, 0.8) + 0.005)
      << "interpolated live curve lost accuracy against the exact truth";

  // The engine may republish a few times while the early, noisier window
  // settles (self-correcting the bootstrap entry); what matters is that
  // the entry it converges on is as good as the live curve.
  EXPECT_GE(sampled_engine->publishes(), 1u);
  auto published = sampled_catalog.Get("ix");
  ASSERT_TRUE(published.ok());
  EXPECT_LE(max_rel_err(*published, *batch_sampled, 0.8), 0.06)
      << "published entry did not converge";
}

// A page target K turns into the rate K / T when the engine is built, so
// the engine runs exactly as one configured with that rate.
TEST(OnlineLruFitTest, PageTargetSetsTheKernelRate) {
  const uint64_t kPages = 2000;
  std::vector<PageId> trace = MakeZipfTrace(40000, kPages, 0.8, 31);
  auto run_online = [&](double rate, uint64_t max_pages,
                        StatsCatalog* catalog) {
    OnlineLruFitOptions options;
    options.table_pages = kPages;
    options.window_refs = 20000;
    options.refresh_interval = 10000;
    options.sample_rate = rate;
    options.sample_max_pages = max_pages;
    OnlineLruFit engine("ix", options, catalog);
    EXPECT_TRUE(engine.Ingest(trace).ok());
    return engine.BuildStats();
  };
  StatsCatalog targeted_catalog;
  StatsCatalog rate_catalog;
  auto targeted = run_online(1.0, 200, &targeted_catalog);
  auto by_rate = run_online(0.1, 0, &rate_catalog);
  ASSERT_TRUE(targeted.ok() && by_rate.ok());
  EXPECT_NEAR(targeted->sample_rate, 0.1, 1.0 / kSampleModulus);
  EXPECT_EQ(targeted->sampled_refs, by_rate->sampled_refs);
  EXPECT_EQ(targeted->fpf->knots(), by_rate->fpf->knots());
}

// ---------------------------------------------------------------------------
// Publication behavior.

TEST(OnlineLruFitTest, BootstrapPublishesIntoEmptyCatalog) {
  std::vector<PageId> trace = MakeZipfTrace(8000, 200, 0.7, 3);
  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = 200;
  options.window_refs = 8000;
  options.refresh_interval = 4000;
  OnlineLruFit engine("ix_boot", options, &catalog);
  ASSERT_TRUE(engine.Ingest(trace).ok());

  // The very first refresh published (Est-IO would otherwise run degraded
  // until drift — against nothing — ever triggered).
  EXPECT_EQ(engine.publishes(), 1u);
  auto snapshot = catalog.snapshot();
  ASSERT_TRUE(snapshot->Resolve("ix_boot").valid());
  auto stats = snapshot->Get("ix_boot");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->online_generation, 1u);
  EXPECT_EQ(stats->window_refs, 8000u);
  EXPECT_EQ(stats->drift_error, 0.0);  // Nothing to drift from.
}

TEST(OnlineLruFitTest, PhaseShiftTriggersDriftRepublish) {
  // Phase 1: hard Zipf skew (theta 0.9). Phase 2: near-uniform references
  // over the same pages — the FPF *shape* changes, not just the hot set.
  const uint64_t kPages = 500;
  std::vector<PageId> phase1 = MakeZipfTrace(40000, kPages, 0.9, 17);
  std::vector<PageId> phase2 = MakeZipfTrace(40000, kPages, 0.1, 18);

  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = kPages;
  options.window_refs = 10000;
  options.refresh_interval = 2000;
  options.drift.band = 0.05;
  options.drift.patience = 3;
  OnlineLruFit engine("ix_shift", options, &catalog);

  ASSERT_TRUE(engine.Ingest(phase1).ok());
  uint64_t publishes_after_phase1 = engine.publishes();
  EXPECT_GE(publishes_after_phase1, 1u);
  uint64_t generation_after_phase1 = catalog.snapshot()->generation();

  ASSERT_TRUE(engine.Ingest(phase2).ok());
  EXPECT_GT(engine.publishes(), publishes_after_phase1)
      << "phase shift never triggered a republish";
  EXPECT_GT(catalog.snapshot()->generation(), generation_after_phase1);

  auto stats = catalog.snapshot()->Get("ix_shift");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->online_generation, 2u);
  // The republished entry records the drift that triggered it.
  EXPECT_GT(stats->drift_error, options.drift.band);
  // And the refreshed curve is back in band against the live window.
  EXPECT_LE(engine.detector().streak(), options.drift.patience - 1);
}

// ---------------------------------------------------------------------------
// Fault points.

TEST(OnlineLruFitTest, RefreshEmitFaultSurfacesAndEngineRecovers) {
  FaultInjector::Global().DisarmAll();
  std::vector<PageId> trace = MakeZipfTrace(12000, 200, 0.7, 5);
  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = 200;
  options.window_refs = 8000;
  options.refresh_interval = 4000;
  OnlineLruFit engine("ix_fault", options, &catalog);

  FaultSpec spec;
  spec.max_fires = 1;
  FaultInjector::Global().Arm("online.refresh.emit", spec);
  Status ingest = engine.Ingest(trace);
  FaultInjector::Global().DisarmAll();
  EXPECT_EQ(ingest.code(), StatusCode::kIoError);
  EXPECT_EQ(engine.publishes(), 0u);

  // The references before the failed refresh were already absorbed by the
  // kernel; feeding the rest retries the refresh and bootstraps normally.
  ASSERT_TRUE(engine.Ingest(trace).ok());
  EXPECT_GE(engine.publishes(), 1u);
  EXPECT_TRUE(catalog.snapshot()->Resolve("ix_fault").valid());
}

TEST(OnlineLruFitTest, PublishFaultLeavesPreviousSnapshotAndRetries) {
  FaultInjector::Global().DisarmAll();
  std::vector<PageId> trace = MakeZipfTrace(12000, 200, 0.7, 7);
  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = 200;
  options.window_refs = 8000;
  options.refresh_interval = 4000;
  OnlineLruFit engine("ix_pub", options, &catalog);

  FaultSpec spec;
  spec.max_fires = 1;
  FaultInjector::Global().Arm("online.publish", spec);
  Status ingest = engine.Ingest(trace);
  FaultInjector::Global().DisarmAll();
  EXPECT_FALSE(ingest.ok());
  // Failed bootstrap publish: the serving snapshot is untouched.
  EXPECT_EQ(engine.publishes(), 0u);
  EXPECT_FALSE(catalog.snapshot()->Resolve("ix_pub").valid());
  EXPECT_EQ(catalog.snapshot()->generation(), 0u);

  ASSERT_TRUE(engine.Ingest(trace).ok());
  EXPECT_GE(engine.publishes(), 1u);
  EXPECT_TRUE(catalog.snapshot()->Resolve("ix_pub").valid());
}

// ---------------------------------------------------------------------------
// Provenance round-trips.

TEST(OnlineLruFitTest, OnlineProvenanceRoundTripsThroughAllFormats) {
  std::vector<PageId> trace = MakeZipfTrace(8000, 200, 0.7, 9);
  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = 200;
  options.window_refs = 6000;
  options.refresh_interval = 4000;
  OnlineLruFit engine("ix_prov", options, &catalog);
  ASSERT_TRUE(engine.Ingest(trace).ok());
  auto original = catalog.Get("ix_prov");
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(original->online_generation, 1u);
  ASSERT_EQ(original->window_refs, 6000u);

  // v2 text round-trip.
  StatsCatalog from_v2;
  ASSERT_TRUE(from_v2.LoadFromString(catalog.SaveToString()).ok());
  auto v2 = from_v2.Get("ix_prov");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->online_generation, original->online_generation);
  EXPECT_EQ(v2->window_refs, original->window_refs);
  EXPECT_EQ(v2->drift_error, original->drift_error);

  // v3 binary round-trip.
  StatsCatalog from_v3;
  ASSERT_TRUE(from_v3.LoadFromString(catalog.SaveToStringV3()).ok());
  auto v3 = from_v3.Get("ix_prov");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->online_generation, original->online_generation);
  EXPECT_EQ(v3->window_refs, original->window_refs);
  EXPECT_EQ(v3->drift_error, original->drift_error);

  // Snapshot materialization (the RCU read side).
  auto snap = catalog.snapshot()->Get("ix_prov");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->online_generation, original->online_generation);
  EXPECT_EQ(snap->window_refs, original->window_refs);
  EXPECT_EQ(snap->drift_error, original->drift_error);

  // Batch entries keep the zero defaults (no fake online provenance).
  auto batch = RunLruFit(trace, 200, 100, "ix_batch");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->online_generation, 0u);
  EXPECT_EQ(batch->window_refs, 0u);
  EXPECT_EQ(batch->drift_error, 0.0);
}

// ---------------------------------------------------------------------------
// RCU contract under a publish storm (TSan drill).

TEST(OnlineLruFitConcurrencyTest, PublishesDoNotBlockBatchReaders) {
  const uint64_t kPages = 300;
  std::vector<PageId> trace = MakeZipfTrace(60000, kPages, 0.8, 21);

  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = kPages;
  options.window_refs = 4000;
  options.refresh_interval = 1000;
  options.drift.band = 0.0;  // Republish on any measurable drift:
  options.drift.patience = 1;  // a publish storm for the readers below.
  OnlineLruFit engine("ix_rcu", options, &catalog);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  ScanSpec scan;
  scan.sigma = 0.2;
  scan.sargable_selectivity = 0.8;
  scan.buffer_pages = 32;
  TableShape shape;
  shape.table_pages = kPages;
  shape.table_records = trace.size();

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t last_generation = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const CatalogSnapshot> snapshot = catalog.snapshot();
        uint64_t generation = snapshot->generation();
        if (generation < last_generation) {  // RCU: time never runs backward.
          failed.store(true, std::memory_order_release);
          break;
        }
        last_generation = generation;
        CatalogSnapshot::Handle handle = snapshot->Resolve("ix_rcu");
        if (handle.valid()) {
          std::vector<BatchProbe> probes = {BatchProbe{handle, scan, shape}};
          std::vector<CatalogEstimate> results(probes.size());
          if (!EstIo::EstimateBatch(*snapshot, probes, results).ok()) {
            failed.store(true, std::memory_order_release);
            break;
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Status ingest = engine.Ingest(trace);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(ingest.ok());
  EXPECT_FALSE(failed.load());
  EXPECT_GE(engine.publishes(), 2u) << "storm never materialized";
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace epfis
