// Online LRU-Fit drift benchmark: time-to-detect and refresh quality on
// a phase-shifting Zipf hotspot.
//
// The workload plays two phases over the same page set. Phase 1 is a
// hard Zipf hotspot (theta-a, hot pages at the front); the engine
// bootstraps its catalog entry from it and settles. Phase 2 rotates the
// hotspot half a table away and flattens the skew (theta-b) — the FPF
// curve's *shape* changes, not just its labels. The bench then measures:
//
//   detect     refresh intervals from the phase shift to the first
//              drift-triggered republish (time-to-detect).
//   stale      mean relative error of the phase-1 entry (what a
//              batch-only system would keep serving) against an exact
//              batch fit of the phase-2 stream.
//   fresh      the same error for the entry the engine republished
//              after detecting the drift.
//
// Correctness gates (always on): the catalog generation must grow
// monotonically, and concurrent EstimateBatch readers — running against
// RCU snapshots for the whole ingestion — must never observe a failure
// or a generation regression (the "zero blocked readers" contract).
//
// Flags:
//   --pages=N            table pages                      (default 500)
//   --phase-refs=N       references per phase           (default 60000)
//   --theta-a=T          phase-1 Zipf skew                (default 0.9)
//   --theta-b=T          phase-2 Zipf skew                (default 0.3)
//   --window=N           decay window, references       (default 10000)
//   --interval=N         refresh interval, references    (default 2000)
//   --band=E             drift band (relative error)     (default 0.05)
//   --patience=N         consecutive checks to trigger      (default 1)
//   --readers=N          concurrent EstimateBatch threads   (default 2)
//   --seed=S             RNG seed                          (default 42)
//   --json=PATH          output JSON path    (default BENCH_online.json)
//   --gate-detect-intervals=N  fail unless detect <= N   (default 0=off)
//   --gate-fresh-err=E   fail unless fresh err <= E      (default 0=off)
//   --gate-ingest-mrefs=X  fail unless refs/s ingested >= X million
//                          (default 0=off)
//
// Acceptance target (ISSUE 8): drift detected within 2 refresh
// intervals of the shift; the republished curve beats the stale one.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "epfis/online_lru_fit.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/zipf.h"

using namespace epfis;

namespace {

constexpr const char* kIndexName = "online_ix.key";

std::vector<PageId> ZipfPhase(size_t refs, uint64_t pages, double theta,
                              uint64_t rotate, Rng& rng) {
  auto zipf = ZipfDistribution::Make(pages, theta);
  std::vector<PageId> trace;
  trace.reserve(refs);
  for (size_t i = 0; i < refs; ++i) {
    uint64_t rank = zipf->Sample(rng) - 1;  // 0-based hotness rank.
    trace.push_back(static_cast<PageId>((rank + rotate) % pages));
  }
  return trace;
}

// Mean relative error of `got` against `want` over an even sweep of
// `want`'s knot range.
double MeanRelErr(const IndexStats& got, const IndexStats& want) {
  double sum = 0.0;
  size_t n = 0;
  uint64_t step = std::max<uint64_t>((want.b_max - want.b_min) / 40, 1);
  for (uint64_t b = want.b_min; b <= want.b_max; b += step) {
    double ref = want.FullScanFetches(static_cast<double>(b));
    if (!(ref > 0.0)) continue;
    sum += std::abs(got.FullScanFetches(static_cast<double>(b)) - ref) / ref;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const uint64_t pages = static_cast<uint64_t>(args.GetInt("pages", 500));
  const size_t phase_refs =
      static_cast<size_t>(args.GetInt("phase-refs", 60'000));
  const double theta_a = args.GetDouble("theta-a", 0.9);
  const double theta_b = args.GetDouble("theta-b", 0.3);
  const uint64_t window = static_cast<uint64_t>(args.GetInt("window", 10'000));
  const uint64_t interval =
      static_cast<uint64_t>(args.GetInt("interval", 2'000));
  const double band = args.GetDouble("band", 0.05);
  const int patience = static_cast<int>(args.GetInt("patience", 1));
  const size_t readers = static_cast<size_t>(args.GetInt("readers", 2));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_online.json");
  const int gate_detect =
      static_cast<int>(args.GetInt("gate-detect-intervals", 0));
  const double gate_fresh = args.GetDouble("gate-fresh-err", 0.0);
  const double gate_ingest_mrefs = args.GetDouble("gate-ingest-mrefs", 0.0);
  ExitOnBadArgs(args);

  if (pages == 0 || phase_refs == 0 || window == 0 || interval == 0 ||
      phase_refs % interval != 0) {
    std::cerr << "--pages/--phase-refs/--window/--interval must be positive "
                 "and --phase-refs a multiple of --interval\n";
    return 1;
  }

  Rng rng(seed);
  std::vector<PageId> phase1 = ZipfPhase(phase_refs, pages, theta_a, 0, rng);
  std::vector<PageId> phase2 =
      ZipfPhase(phase_refs, pages, theta_b, pages / 2, rng);

  // Ground truth for the post-shift stream: an exact batch fit of phase 2
  // alone (the curve a fresh offline LRU-Fit run would publish).
  auto reference = RunLruFit(phase2, pages, pages / 5, kIndexName);
  if (!reference.ok()) {
    std::cerr << reference.status().ToString() << '\n';
    return 1;
  }

  StatsCatalog catalog;
  OnlineLruFitOptions options;
  options.table_pages = pages;
  options.table_records = phase_refs;
  options.distinct_keys = pages / 5;
  options.window_refs = window;
  options.refresh_interval = interval;
  options.drift.band = band;
  options.drift.patience = patience;
  OnlineLruFit engine(kIndexName, options, &catalog);

  // ---- Phase 1: bootstrap and settle. ----
  auto t0 = std::chrono::steady_clock::now();
  if (Status s = engine.Ingest(phase1); !s.ok()) {
    std::cerr << s.ToString() << '\n';
    return 1;
  }
  const uint64_t settled_publishes = engine.publishes();
  const uint64_t settled_generation = catalog.snapshot()->generation();
  auto stale = catalog.Get(kIndexName);
  if (!stale.ok() || settled_publishes == 0) {
    std::cerr << "phase 1 never published a catalog entry\n";
    return 1;
  }

  // ---- Concurrent readers for the whole phase-2 ingestion. ----
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> reader_threads;
  for (size_t t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t] {
      Rng reader_rng(seed + 100 + t);
      uint64_t last_generation = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const CatalogSnapshot> snapshot = catalog.snapshot();
        if (snapshot->generation() < last_generation) {
          reader_failed.store(true);
          return;
        }
        last_generation = snapshot->generation();
        CatalogSnapshot::Handle handle = snapshot->Resolve(kIndexName);
        if (!handle.valid()) continue;
        const IndexStatsView& view = snapshot->ViewAt(handle);
        TableShape shape{view.table_pages, view.table_records};
        BatchProbe probe;
        probe.index = handle;
        probe.scan.sigma = 0.25;
        probe.scan.sargable_selectivity = 0.5;
        probe.scan.buffer_pages = 1 + reader_rng.NextBounded(pages);
        probe.shape = shape;
        CatalogEstimate estimate;
        Status s = EstIo::EstimateBatch(
            *snapshot, std::span<const BatchProbe>(&probe, 1),
            std::span<CatalogEstimate>(&estimate, 1));
        if (!s.ok()) {
          reader_failed.store(true);
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // ---- Phase 2: ingest interval-by-interval, watch for the republish. ----
  int detect_intervals = -1;
  size_t chunks = phase_refs / interval;
  for (size_t c = 0; c < chunks; ++c) {
    Status s =
        engine.Ingest(phase2.data() + c * interval, interval);
    if (!s.ok()) {
      std::cerr << s.ToString() << '\n';
      return 1;
    }
    if (detect_intervals < 0 && engine.publishes() > settled_publishes) {
      detect_intervals = static_cast<int>(c) + 1;
    }
  }
  stop.store(true);
  for (std::thread& thread : reader_threads) thread.join();
  double total_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  auto fresh = catalog.Get(kIndexName);
  if (!fresh.ok()) {
    std::cerr << fresh.status().ToString() << '\n';
    return 1;
  }
  const uint64_t final_generation = catalog.snapshot()->generation();

  double stale_err = MeanRelErr(*stale, *reference);
  double fresh_err = MeanRelErr(*fresh, *reference);
  double total_refs = static_cast<double>(2 * phase_refs);
  double ingest_mrefs = total_refs / total_s / 1e6;

  TablePrinter table({"metric", "value"});
  table.AddRow().Cell("refs/s ingested").Cell(total_refs / total_s, 0);
  table.AddRow()
      .Cell("time-to-detect (refresh intervals)")
      .Cell(static_cast<double>(detect_intervals), 0);
  table.AddRow().Cell("stale mean rel err vs phase-2 batch").Cell(stale_err, 4);
  table.AddRow().Cell("fresh mean rel err vs phase-2 batch").Cell(fresh_err, 4);
  table.AddRow()
      .Cell("drift error at last refresh")
      .Cell(engine.last_drift_error(), 4);
  table.AddRow()
      .Cell("publishes during phase 1")
      .Cell(static_cast<double>(settled_publishes), 0);
  table.AddRow()
      .Cell("concurrent reads served")
      .Cell(static_cast<double>(reads.load()), 0);
  table.Print(std::cout);
  std::cout << "publishes total: " << engine.publishes()
            << ", catalog generation " << settled_generation << " -> "
            << final_generation << '\n';

  bool gates_ok = true;
  if (detect_intervals < 0) {
    gates_ok = false;
    std::cerr << "GATE FAIL: drift never triggered a republish\n";
  }
  if (gate_detect > 0 && detect_intervals > gate_detect) {
    gates_ok = false;
    std::cerr << "GATE FAIL: detected in " << detect_intervals
              << " intervals, floor is " << gate_detect << '\n';
  }
  if (gate_fresh > 0 && fresh_err > gate_fresh) {
    gates_ok = false;
    std::cerr << "GATE FAIL: fresh error " << fresh_err << " above "
              << gate_fresh << '\n';
  }
  if (gate_ingest_mrefs > 0 && ingest_mrefs < gate_ingest_mrefs) {
    gates_ok = false;
    std::cerr << "GATE FAIL: ingested " << ingest_mrefs
              << " M refs/s, floor is " << gate_ingest_mrefs << '\n';
  }
  if (fresh_err >= stale_err) {
    gates_ok = false;
    std::cerr << "GATE FAIL: republished curve (" << fresh_err
              << ") no better than the stale one (" << stale_err << ")\n";
  }
  if (reader_failed.load()) {
    gates_ok = false;
    std::cerr << "GATE FAIL: a concurrent reader saw an error or a "
                 "generation regression\n";
  }
  if (final_generation <= settled_generation) {
    gates_ok = false;
    std::cerr << "GATE FAIL: catalog generation did not advance\n";
  }

  std::ofstream json(json_path, std::ios::trunc);
  if (!json.is_open()) {
    std::cerr << "cannot write " << json_path << '\n';
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"online_lru_fit\",\n"
       << "  \"pages\": " << pages << ",\n"
       << "  \"phase_refs\": " << phase_refs << ",\n"
       << "  \"theta_a\": " << theta_a << ",\n"
       << "  \"theta_b\": " << theta_b << ",\n"
       << "  \"window_refs\": " << window << ",\n"
       << "  \"refresh_interval\": " << interval << ",\n"
       << "  \"drift_band\": " << band << ",\n"
       << "  \"patience\": " << patience << ",\n"
       << "  \"detect_intervals\": " << detect_intervals << ",\n"
       << "  \"stale_mean_rel_err\": " << stale_err << ",\n"
       << "  \"fresh_mean_rel_err\": " << fresh_err << ",\n"
       << "  \"last_drift_error\": " << engine.last_drift_error() << ",\n"
       << "  \"publishes\": " << engine.publishes() << ",\n"
       << "  \"refreshes\": " << engine.refreshes() << ",\n"
       << "  \"ingest_refs_per_s\": " << total_refs / total_s << ",\n"
       << "  \"concurrent_reads\": " << reads.load() << ",\n"
       << "  \"reader_failures\": " << (reader_failed.load() ? 1 : 0) << ",\n"
       << "  \"generation_before\": " << settled_generation << ",\n"
       << "  \"generation_after\": " << final_generation << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << '\n';

  return gates_ok ? 0 : 1;
}
