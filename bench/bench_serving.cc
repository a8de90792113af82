// Est-IO serving-path benchmark: batched estimation off an RCU snapshot.
//
// Builds a catalog of synthetic indexes with realistic multi-knot FPF
// curves, publishes a snapshot, and times three read paths over the same
// probe workload (random index, sigma, sargable selectivity, and buffer
// size per probe):
//
//   by-name   EstimateFromCatalog(snapshot, name, ...) per probe — the
//             pre-batch API shape, one name lookup per estimate.
//   single    EstimateFromCatalog through the snapshot per probe with the
//             name resolved outside the loop (isolates lookup cost).
//   batch     One EstimateBatch call per --batch probes, handles resolved
//             once per index up front.
//
// Gates (always on): batch results must be bit-identical to the by-name
// single-probe results, a zero-copy mmap v3 snapshot of the same catalog
// must reproduce them bit-for-bit, and a batched probe must cost no more
// than a by-name call (batch_speedup >= 1, a ratio within one run). With
// --publishers=N, N background threads republish the catalog throughout
// the timed runs — the RCU contract says readers never slow down or see a
// torn view.
//
// Flags:
//   --indexes=N     catalog entries                   (default 32)
//   --knots=N       FPF knots per entry               (default 12)
//   --probes=N      probes per timed rep              (default 1000000)
//   --batch=N       probes per EstimateBatch call     (default 4096)
//   --reps=N        timed repetitions, best-of-N      (default 3)
//   --publishers=N  concurrent republishing threads   (default 1)
//   --seed=S        RNG seed                          (default 42)
//   --json=PATH     output JSON path        (default BENCH_serving.json)
//   --gate-rate=R   fail unless batch estimates/s >= R  (default 0 = off)
//
// Acceptance target (ISSUE 6): batch >= 1,000,000 estimates/s.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "catalog/catalog_v3.h"
#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "util/random.h"
#include "util/table_printer.h"

using namespace epfis;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string IndexName(size_t i) {
  return "serve_ix_" + std::to_string(i) + ".key";
}

// A plausible secondary-index FPF curve: convex, decreasing from f_min
// fetches at b_min down to ~table_pages at b_max, sampled at `knots`
// geometrically spaced buffer sizes (LRU-Fit output has this shape).
IndexStats MakeStats(size_t i, size_t knots, Rng& rng) {
  uint64_t pages = 500 + rng.NextBounded(8000);
  uint64_t records = pages * (20 + rng.NextBounded(60));
  double clustering = static_cast<double>(rng.NextBounded(1000)) / 1000.0;
  double f_max = static_cast<double>(records) *
                 (0.3 + static_cast<double>(rng.NextBounded(500)) / 1000.0);
  double f_min = static_cast<double>(pages);

  IndexStats stats;
  stats.index_name = IndexName(i);
  stats.table_pages = pages;
  stats.table_records = records;
  stats.distinct_keys = records / 10;
  stats.pages_accessed = pages;
  stats.b_min = 12;
  stats.b_max = pages;
  stats.f_min = f_min;
  stats.clustering = clustering;

  std::vector<Knot> curve;
  curve.reserve(knots);
  double b_lo = 12.0;
  double b_hi = static_cast<double>(pages);
  for (size_t k = 0; k < knots; ++k) {
    double t = static_cast<double>(k) / static_cast<double>(knots - 1);
    double b = b_lo * std::pow(b_hi / b_lo, t);
    // Convex decay in log-b, plus a little per-index wobble so entries
    // are not affinely related to each other.
    double f = f_min + (f_max - f_min) * std::pow(1.0 - t, 1.7);
    curve.push_back({b, f});
  }
  curve.back().x = b_hi;  // Exact endpoint despite pow() rounding.
  stats.fpf = PiecewiseLinear::FromKnots(curve).value();
  return stats;
}

struct Workload {
  std::vector<std::string> names;         // Per probe: index name.
  std::vector<BatchProbe> probes;         // Handles against `snapshot`.
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const size_t indexes = static_cast<size_t>(args.GetInt("indexes", 32));
  const size_t knots = static_cast<size_t>(args.GetInt("knots", 12));
  const size_t probes_n =
      static_cast<size_t>(args.GetInt("probes", 1'000'000));
  const size_t batch_n = static_cast<size_t>(args.GetInt("batch", 4096));
  const int reps = static_cast<int>(args.GetInt("reps", 3));
  const size_t publishers =
      static_cast<size_t>(args.GetInt("publishers", 1));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path =
      args.GetString("json", "BENCH_serving.json");
  const double gate_rate = args.GetDouble("gate-rate", 0.0);
  ExitOnBadArgs(args);

  if (indexes == 0 || knots < 2 || probes_n == 0 || batch_n == 0 ||
      reps < 1) {
    std::cerr << "--indexes, --probes, --batch, --reps must be positive "
                 "and --knots >= 2\n";
    return 1;
  }

  // ---- Fixture: catalog, published snapshot, probe workload. ----
  Rng rng(seed);
  StatsCatalog catalog;
  for (size_t i = 0; i < indexes; ++i) {
    catalog.Put(MakeStats(i, knots, rng));
  }
  if (Status s = catalog.Publish(); !s.ok()) {
    std::cerr << s.ToString() << '\n';
    return 1;
  }
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.snapshot();

  Workload work;
  work.names.reserve(probes_n);
  work.probes.reserve(probes_n);
  std::vector<CatalogSnapshot::Handle> handles(indexes);
  std::vector<TableShape> shapes(indexes);
  for (size_t i = 0; i < indexes; ++i) {
    handles[i] = snapshot->Resolve(IndexName(i));
    if (!handles[i].valid()) {
      std::cerr << "fixture bug: unresolved index\n";
      return 1;
    }
    const IndexStatsView& view = snapshot->ViewAt(handles[i]);
    shapes[i] = TableShape{view.table_pages, view.table_records};
  }
  for (size_t p = 0; p < probes_n; ++p) {
    size_t i = rng.NextBounded(indexes);
    ScanSpec scan;
    scan.sigma =
        0.001 + 0.999 * static_cast<double>(rng.NextBounded(1000)) / 999.0;
    scan.sargable_selectivity =
        0.05 + 0.95 * static_cast<double>(rng.NextBounded(1000)) / 999.0;
    scan.buffer_pages = 1 + rng.NextBounded(shapes[i].table_pages);
    work.names.push_back(IndexName(i));
    work.probes.push_back(BatchProbe{handles[i], scan, shapes[i]});
  }

  // ---- Concurrent publishers: republish for the whole timed section. ----
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> publish_count{0};
  std::vector<std::thread> publisher_threads;
  for (size_t t = 0; t < publishers; ++t) {
    publisher_threads.emplace_back([&, t] {
      Rng prng(seed + 1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        catalog.Put(MakeStats(indexes + t, knots, prng));
        if (!catalog.Publish().ok()) break;
        publish_count.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  // ---- Timed runs (best-of-reps), all over the SAME pinned snapshot:
  // that is the serving contract — a query compiles against one coherent
  // generation no matter how often the background refresh republishes. ----
  std::vector<CatalogEstimate> by_name(probes_n);
  double by_name_s = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t p = 0; p < probes_n; ++p) {
      auto est = EstIo::EstimateFromCatalog(
          *snapshot, work.names[p], work.probes[p].scan,
          work.probes[p].shape);
      if (!est.ok()) {
        std::cerr << est.status().ToString() << '\n';
        return 1;
      }
      by_name[p] = std::move(*est);
    }
    double s = SecondsSince(t0);
    if (r == 0 || s < by_name_s) by_name_s = s;
  }

  std::vector<CatalogEstimate> batched(probes_n);
  double batch_s = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t off = 0; off < probes_n; off += batch_n) {
      size_t n = std::min(batch_n, probes_n - off);
      Status s = EstIo::EstimateBatch(
          *snapshot,
          std::span<const BatchProbe>(work.probes.data() + off, n),
          std::span<CatalogEstimate>(batched.data() + off, n));
      if (!s.ok()) {
        std::cerr << s.ToString() << '\n';
        return 1;
      }
    }
    double s = SecondsSince(t0);
    if (r == 0 || s < batch_s) batch_s = s;
  }

  stop.store(true);
  for (std::thread& thread : publisher_threads) thread.join();

  // ---- Gate 1: batch output bit-identical to per-call output. ----
  bool identical = true;
  for (size_t p = 0; p < probes_n; ++p) {
    if (batched[p].fetches != by_name[p].fetches ||
        batched[p].source != by_name[p].source) {
      identical = false;
      std::cerr << "MISMATCH at probe " << p << ": batch "
                << batched[p].fetches << " vs single "
                << by_name[p].fetches << '\n';
      break;
    }
  }

  // ---- Gate 2: zero-copy mmap v3 snapshot reproduces every estimate. ----
  std::string v3_path = json_path + ".cat3.tmp-bench";
  bool mmap_identical = false;
  double mmap_batch_s = 0;
  if (Status s = catalog.SaveToFileV3(v3_path); !s.ok()) {
    std::cerr << s.ToString() << '\n';
    return 1;
  }
  {
    auto mapped = OpenCatalogSnapshotV3(v3_path, snapshot->generation());
    if (!mapped.ok()) {
      std::cerr << mapped.status().ToString() << '\n';
      return 1;
    }
    // Publishers only ever Put *extra* indexes, so the workload's entries
    // in the file are byte-for-byte the ones the pinned snapshot served;
    // re-resolve handles (slots shift with the extra entries) and demand
    // the mmap-backed estimates equal the in-memory ones exactly.
    std::shared_ptr<const CatalogSnapshot> disk = *mapped;
    mmap_identical = true;
    std::vector<BatchProbe> disk_probes = work.probes;
    for (size_t p = 0; p < probes_n; ++p) {
      disk_probes[p].index = disk->Resolve(work.names[p]);
    }
    std::vector<CatalogEstimate> from_disk(probes_n);
    auto t0 = std::chrono::steady_clock::now();
    for (size_t off = 0; off < probes_n; off += batch_n) {
      size_t n = std::min(batch_n, probes_n - off);
      Status s = EstIo::EstimateBatch(
          *disk,
          std::span<const BatchProbe>(disk_probes.data() + off, n),
          std::span<CatalogEstimate>(from_disk.data() + off, n));
      if (!s.ok()) {
        std::cerr << s.ToString() << '\n';
        return 1;
      }
    }
    mmap_batch_s = SecondsSince(t0);
    for (size_t p = 0; p < probes_n; ++p) {
      if (from_disk[p].fetches != by_name[p].fetches ||
          from_disk[p].source != by_name[p].source) {
        mmap_identical = false;
        std::cerr << "MMAP MISMATCH at probe " << p << ": disk "
                  << from_disk[p].fetches << " vs memory "
                  << by_name[p].fetches << '\n';
        break;
      }
    }
  }
  std::remove(v3_path.c_str());

  double by_name_rate = static_cast<double>(probes_n) / by_name_s;
  double batch_rate = static_cast<double>(probes_n) / batch_s;
  double mmap_rate = static_cast<double>(probes_n) / mmap_batch_s;

  TablePrinter table({"path", "seconds", "Mest/s", "speedup"});
  table.AddRow()
      .Cell("by-name per probe")
      .Cell(by_name_s, 3)
      .Cell(by_name_rate / 1e6, 2)
      .Cell(1.0, 2);
  table.AddRow()
      .Cell("EstimateBatch/" + std::to_string(batch_n))
      .Cell(batch_s, 3)
      .Cell(batch_rate / 1e6, 2)
      .Cell(by_name_s / batch_s, 2);
  table.AddRow()
      .Cell("EstimateBatch, mmap v3")
      .Cell(mmap_batch_s, 3)
      .Cell(mmap_rate / 1e6, 2)
      .Cell(by_name_s / mmap_batch_s, 2);
  table.Print(std::cout);
  std::cout << "bit-identical single vs batch: "
            << (identical ? "yes" : "NO (bug!)")
            << "\nbit-identical mmap vs in-memory: "
            << (mmap_identical ? "yes" : "NO (bug!)")
            << "\nconcurrent publishes during timed runs: "
            << publish_count.load() << '\n';

  bool gate_ok = true;
  if (gate_rate > 0 && batch_rate < gate_rate) {
    gate_ok = false;
    std::cerr << "GATE FAIL: batch rate " << batch_rate
              << " est/s below floor " << gate_rate << '\n';
  }
  double batch_speedup = by_name_s / batch_s;
  if (batch_speedup < 1.0) {
    gate_ok = false;
    std::cerr << "GATE FAIL: a batched probe costs more than a by-name "
                 "call (batch_speedup "
              << batch_speedup << " < 1)\n";
  }

  std::ofstream json(json_path, std::ios::trunc);
  if (!json.is_open()) {
    std::cerr << "cannot write " << json_path << '\n';
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"est_io_serving\",\n"
       << "  \"indexes\": " << indexes << ",\n"
       << "  \"knots\": " << knots << ",\n"
       << "  \"probes\": " << probes_n << ",\n"
       << "  \"batch_size\": " << batch_n << ",\n"
       << "  \"publishers\": " << publishers << ",\n"
       << "  \"concurrent_publishes\": " << publish_count.load() << ",\n"
       << "  \"by_name_seconds\": " << by_name_s << ",\n"
       << "  \"batch_seconds\": " << batch_s << ",\n"
       << "  \"mmap_batch_seconds\": " << mmap_batch_s << ",\n"
       << "  \"by_name_estimates_per_s\": " << by_name_rate << ",\n"
       << "  \"batch_estimates_per_s\": " << batch_rate << ",\n"
       << "  \"mmap_batch_estimates_per_s\": " << mmap_rate << ",\n"
       << "  \"batch_speedup\": " << batch_speedup << ",\n"
       << "  \"bit_identical_single_vs_batch\": "
       << (identical ? "true" : "false") << ",\n"
       << "  \"bit_identical_mmap_vs_memory\": "
       << (mmap_identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << '\n';

  return (identical && mmap_identical && gate_ok) ? 0 : 1;
}
