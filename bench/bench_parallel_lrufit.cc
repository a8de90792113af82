// Batch statistics collection vs a serial loop.
//
// Generates `--batch` Zipf(theta) page traces (the skewed reuse pattern
// of a real secondary index over a hot/cold table) and collects their
// IndexStats two ways:
//
//   serial loop     RunLruFit on each index in turn, on one core
//   RunLruFitBatch  the same fits as jobs on a ThreadPool, one serial
//                   Mattson pass per job (the one threaded statistics
//                   path)
//
// Flags:
//   --refs=N      references across all indexes      (default 10000000)
//   --pages=N     each index's table holds max(N/8, 128) pages
//                                                    (default refs/50)
//   --theta=F     Zipf skew                          (default 0.86)
//   --threads=N   pool workers                       (default 8)
//   --batch=N     indexes in the batch               (default 16)
//   --seed=S      RNG seed                           (default 42)
//
// Exits non-zero unless the batch catalog is bit-identical to the serial
// loop's. The batch's multi-core speedup is unmeasured: on a box with
// about one effective core it ran at 0.90-1.16x the serial loop.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "catalog/stats_catalog.h"
#include "epfis/lru_fit.h"
#include "epfis/trace_source.h"
#include "util/arg_parser.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

using namespace epfis;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<PageId> MakeZipfTrace(uint64_t refs, uint64_t pages,
                                  double theta, uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf = ZipfDistribution::Make(pages, theta).value();
  std::vector<PageId> trace;
  trace.reserve(refs);
  for (uint64_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(zipf.Sample(rng) - 1));
  }
  return trace;
}

bool SameStats(const IndexStats& a, const IndexStats& b) {
  if (a.table_records != b.table_records || a.f_min != b.f_min ||
      a.pages_accessed != b.pages_accessed ||
      a.clustering != b.clustering) {
    return false;
  }
  for (double frac : {0.02, 0.1, 0.3, 0.7, 1.0}) {
    double buf = frac * static_cast<double>(a.table_pages);
    if (a.FullScanFetches(buf) != b.FullScanFetches(buf)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const uint64_t refs =
      static_cast<uint64_t>(args.GetInt("refs", 10'000'000));
  const uint64_t pages = static_cast<uint64_t>(
      args.GetInt("pages", static_cast<int64_t>(refs / 50)));
  const double theta = args.GetDouble("theta", 0.86);
  const size_t threads = static_cast<size_t>(args.GetInt("threads", 8));
  const int batch_indexes = static_cast<int>(args.GetInt("batch", 16));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  if (refs == 0 || pages == 0 || threads == 0 || batch_indexes < 1) {
    std::cerr << "--refs, --pages, --threads, and --batch must be positive\n";
    return 1;
  }

  std::cout << "generating " << batch_indexes << " Zipf(" << theta
            << ") traces: " << refs << " refs in total...\n";
  ThreadPool pool(threads);

  const uint64_t small_refs = refs / static_cast<uint64_t>(batch_indexes);
  const uint64_t small_pages = std::max<uint64_t>(pages / 8, 128);
  std::vector<std::vector<PageId>> small_traces;
  for (int i = 0; i < batch_indexes; ++i) {
    small_traces.push_back(
        MakeZipfTrace(small_refs, small_pages, theta, seed + 1 + i));
  }

  auto t0 = std::chrono::steady_clock::now();
  StatsCatalog serial_catalog;
  for (int i = 0; i < batch_indexes; ++i) {
    auto stats = RunLruFit(small_traces[i], small_pages, small_pages / 10,
                           "idx_" + std::to_string(i));
    if (stats.ok()) serial_catalog.Put(std::move(stats).value());
  }
  double loop_s = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  StatsCatalog batch_catalog;
  std::vector<LruFitJob> jobs;
  for (int i = 0; i < batch_indexes; ++i) {
    LruFitJob job;
    job.trace =
        std::make_unique<VectorTraceSource>(std::move(small_traces[i]));
    job.table_pages = small_pages;
    job.distinct_keys = small_pages / 10;
    job.index_name = "idx_" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  LruFitBatchResult batch = RunLruFitBatch(std::move(jobs), pool,
                                           &batch_catalog);
  double batch_s = SecondsSince(t0);

  TablePrinter batch_table({"collection", "indexes", "ok", "seconds",
                            "speedup"});
  batch_table.AddRow()
      .Cell("serial loop")
      .Cell(int64_t{batch_indexes})
      .Cell(int64_t{batch_indexes})
      .Cell(loop_s, 3)
      .Cell(1.0, 2);
  batch_table.AddRow()
      .Cell("RunLruFitBatch")
      .Cell(int64_t{batch_indexes})
      .Cell(static_cast<int64_t>(batch.num_ok))
      .Cell(batch_s, 3)
      .Cell(loop_s / batch_s, 2);
  batch_table.Print(std::cout);

  bool identical = true;
  for (int i = 0; i < batch_indexes; ++i) {
    auto a = serial_catalog.Get("idx_" + std::to_string(i));
    auto b = batch_catalog.Get("idx_" + std::to_string(i));
    if (!a.ok() || !b.ok() || !SameStats(*a, *b)) identical = false;
  }
  std::cout << "batch catalog matches serial loop: "
            << (identical ? "yes" : "NO (bug!)") << '\n';
  return identical ? 0 : 1;
}
