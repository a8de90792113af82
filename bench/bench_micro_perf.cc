// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
//
//  * StackDistanceSimulator — LRU-Fit's inner loop; the paper requires the
//    whole multi-buffer-size simulation to be feasible "while statistics
//    are being gathered for other purposes".
//  * LruSimulator — the direct single-size simulation (for comparison).
//  * EstIo::Estimate — the optimizer-time path; the paper's pitch is
//    that estimation "only involves computing a simple formula", so this
//    must be nanoseconds-to-microseconds.
//  * AccessPathOptimizer::Choose — that formula inside a whole plan
//    choice off the published catalog snapshot.
//  * B-tree insert/seek and buffer pool hits — substrate costs.
//  * Piecewise-linear fitting — the once-per-index statistics cost.

#include <benchmark/benchmark.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/lru_simulator.h"
#include "buffer/stack_distance.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/epfis.h"
#include "exec/optimizer.h"
#include "index/btree.h"
#include "storage/disk_manager.h"
#include "util/piecewise.h"
#include "util/random.h"
#include "workload/data_gen.h"
#include "workload/scan_gen.h"

namespace epfis {
namespace {

std::vector<PageId> RandomTrace(size_t len, uint32_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  trace.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(pages)));
  }
  return trace;
}

void BM_StackDistanceAccess(benchmark::State& state) {
  auto trace = RandomTrace(1 << 16, static_cast<uint32_t>(state.range(0)),
                           11);
  for (auto _ : state) {
    StackDistanceSimulator sim(trace.size());
    sim.AccessAll(trace);
    benchmark::DoNotOptimize(sim.Fetches(64));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_StackDistanceAccess)->Arg(256)->Arg(4096)->Arg(65536);

// The cache-conscious kernel on the identical workload — compare
// items_per_second against BM_StackDistanceAccess for the old-vs-new
// single-thread throughput ratio (bench_kernel runs the full-scale
// 10M-reference comparison and emits BENCH_kernel.json).
void BM_StackDistanceKernelAccess(benchmark::State& state) {
  auto trace = RandomTrace(1 << 16, static_cast<uint32_t>(state.range(0)),
                           11);
  for (auto _ : state) {
    StackDistanceKernel kernel(trace.size());
    kernel.AccessAll(trace);
    benchmark::DoNotOptimize(kernel.Fetches(64));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_StackDistanceKernelAccess)->Arg(256)->Arg(4096)->Arg(65536);

void BM_LruSimulatorAccess(benchmark::State& state) {
  auto trace = RandomTrace(1 << 16, 4096, 13);
  for (auto _ : state) {
    LruSimulator sim(static_cast<size_t>(state.range(0)));
    sim.AccessAll(trace);
    benchmark::DoNotOptimize(sim.fetches());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_LruSimulatorAccess)->Arg(16)->Arg(256)->Arg(4096);

void BM_LruFitFullRun(benchmark::State& state) {
  auto trace =
      RandomTrace(static_cast<size_t>(state.range(0)), 2048, 17);
  for (auto _ : state) {
    auto stats = RunLruFit(trace, 2048, 100, "bm");
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LruFitFullRun)->Arg(1 << 14)->Arg(1 << 17);

void BM_EstIo(benchmark::State& state) {
  auto trace = RandomTrace(1 << 15, 1024, 19);
  IndexStats stats = RunLruFit(trace, 1024, 100, "bm").value();
  uint64_t i = 0;
  for (auto _ : state) {
    ScanSpec scan;
    scan.sigma = 0.001 * static_cast<double>(i % 1000 + 1);
    scan.buffer_pages = 12 + (i % 1000);
    benchmark::DoNotOptimize(EstIo::Estimate(stats, scan).value());
    ++i;
  }
}
BENCHMARK(BM_EstIo);

// AccessPathOptimizer::Choose over a published catalog of the lifecycle
// `query` workload's four tables (N = 10^5, theta = 0.86, K in
// {.05, .2, .5, 1}, one index each), cycling through that workload's mix:
// a mixed-size scan range's sigma, B from 5% to 90% of the table, and a
// sargable predicate on 30% of the queries.
void BM_Choose(benchmark::State& state) {
  constexpr double kWindows[] = {0.05, 0.2, 0.5, 1.0};
  constexpr double kSargable[] = {0.1, 0.25, 0.5};
  Catalog catalog;
  std::vector<std::unique_ptr<Dataset>> datasets;
  std::vector<ScanGenerator> scans;
  for (size_t i = 0; i < std::size(kWindows); ++i) {
    SyntheticSpec spec;
    spec.name = "q" + std::to_string(i);
    spec.num_records = 100000;
    spec.num_distinct = 1000;
    spec.records_per_page = 40;
    spec.theta = 0.86;
    spec.window_fraction = kWindows[i];
    spec.seed = 41 + i;
    std::unique_ptr<Dataset> dataset = GenerateSynthetic(spec).value();
    std::string index = spec.name + ".key";
    if (!catalog.RegisterTable(spec.name, dataset->table()).ok() ||
        !catalog.RegisterIndex(index, spec.name, 0, dataset->index()).ok()) {
      state.SkipWithError("catalog registration failed");
      return;
    }
    catalog.stats().Put(RunLruFit(dataset->FullIndexPageTrace().value(),
                                  dataset->num_pages(),
                                  dataset->num_distinct(), index)
                            .value());
    scans.emplace_back(dataset.get(), 43 + i);
    datasets.push_back(std::move(dataset));
  }
  if (!catalog.stats().Publish().ok()) {
    state.SkipWithError("publish failed");
    return;
  }

  struct Planned {
    Query query;
    uint64_t buffer_pages = 0;
  };
  Rng rng(47);
  std::vector<Planned> queries(1024);
  for (Planned& q : queries) {
    size_t t = rng.NextBounded(datasets.size());
    ScanRange range = scans[t].Next(ScanMix::kMixed);
    double pages = static_cast<double>(datasets[t]->num_pages());
    q.query.table = "q" + std::to_string(t);
    q.query.range = KeyRange::Closed(range.lo_key, range.hi_key);
    q.query.sigma = range.sigma;
    q.query.sargable_selectivity =
        rng.NextBernoulli(0.3) ? kSargable[rng.NextBounded(3)] : 1.0;
    q.buffer_pages = static_cast<uint64_t>(
        std::llround(0.05 * static_cast<double>(1 + rng.NextBounded(18)) *
                     pages));
  }

  AccessPathOptimizer optimizer(&catalog);
  size_t i = 0;
  for (auto _ : state) {
    const Planned& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(
        optimizer.Choose(q.query, q.buffer_pages).value().total_cost);
  }
}
BENCHMARK(BM_Choose);

void BM_PiecewiseFit(benchmark::State& state) {
  Rng rng(23);
  std::vector<Knot> points;
  double y = 100000;
  for (int i = 0; i < state.range(0); ++i) {
    y *= 0.92;
    points.push_back(Knot{static_cast<double>(i * 50 + 12),
                          y + rng.NextDouble() * 100});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitPiecewiseLinear(points, 6));
  }
}
BENCHMARK(BM_PiecewiseFit)->Arg(20)->Arg(80)->Arg(200);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(29);
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager disk;
    BufferPool pool(&disk, 512);
    BTree tree(&pool, "bm");
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      IndexEntry entry{static_cast<int64_t>(rng.NextBounded(1 << 20)),
                       Rid{static_cast<PageId>(i), 0}};
      benchmark::DoNotOptimize(tree.Insert(entry));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(10000);

void BM_BTreeSeek(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 4096);
  BTree tree(&pool, "bm");
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 200000; ++i) {
    entries.push_back(
        IndexEntry{i, Rid{static_cast<PageId>(i / 100),
                          static_cast<uint16_t>(i % 100)}});
  }
  (void)tree.BulkLoad(std::move(entries));
  Rng rng(31);
  for (auto _ : state) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(200000));
    auto it = tree.SeekGE(BTree::MinEntryForKey(key));
    benchmark::DoNotOptimize(it);
  }
}
BENCHMARK(BM_BTreeSeek);

void BM_BufferPoolHit(benchmark::State& state) {
  DiskManager disk;
  for (int i = 0; i < 64; ++i) disk.AllocatePage();
  BufferPool pool(&disk, 64);
  Rng rng(37);
  for (auto _ : state) {
    auto guard = pool.FetchPage(static_cast<PageId>(rng.NextBounded(64)));
    benchmark::DoNotOptimize(guard);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

}  // namespace
}  // namespace epfis

BENCHMARK_MAIN();
