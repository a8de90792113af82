// Quickstart: the full EPFIS lifecycle on a small synthetic table.
//
//   1. Build a table + B-tree index (the §5.2 generator).
//   2. Statistics time: run Subprogram LRU-Fit once over the index's page
//      reference string; store the result in the statistics catalog.
//   3. Query time: ask Subprogram Est-IO for page-fetch estimates and
//      compare them against physically executed scans at several buffer
//      sizes.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "catalog/stats_catalog.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "util/arg_parser.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"
#include "workload/scan_gen.h"

using namespace epfis;

int main(int argc, char** argv) {
  // Takes no arguments: any argument is rejected, by name.
  if (Status status = ArgParser(argc, argv).Check(); !status.ok()) {
    std::cerr << "error: " << status.message() << '\n';
    return 2;
  }
  // --- 1. A 50k-record table with a moderately unclustered index. ---
  SyntheticSpec spec;
  spec.name = "orders";
  spec.num_records = 50'000;
  spec.num_distinct = 500;    // 100 rows per key value.
  spec.records_per_page = 40; // => T = 1250 pages.
  spec.window_fraction = 0.2; // Sliding-window clustering.
  spec.seed = 7;

  auto dataset_or = GenerateSynthetic(spec);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status().ToString() << '\n';
    return 1;
  }
  Dataset& dataset = **dataset_or;
  std::cout << "table '" << dataset.name() << "': N=" << dataset.num_records()
            << " records, T=" << dataset.num_pages() << " pages, I="
            << dataset.num_distinct() << " distinct keys\n\n";

  // --- 2. Statistics collection (once, like RUNSTATS). ---
  auto trace_or = dataset.FullIndexPageTrace();
  if (!trace_or.ok()) {
    std::cerr << trace_or.status().ToString() << '\n';
    return 1;
  }
  auto stats_or = RunLruFit(*trace_or, dataset.num_pages(),
                            dataset.num_distinct(), "orders.key");
  if (!stats_or.ok()) {
    std::cerr << stats_or.status().ToString() << '\n';
    return 1;
  }
  IndexStats stats = std::move(stats_or).value();
  std::cout << "LRU-Fit: modeled B in [" << stats.b_min << ", " << stats.b_max
            << "], clustering factor C = " << stats.clustering
            << ",\n  FPF curve stored as " << stats.fpf->num_segments()
            << " line segments (" << stats.fpf->knots().size()
            << " knot pairs in the catalog)\n\n";

  StatsCatalog catalog;
  catalog.Put(stats);
  // Freeze the entries into the immutable snapshot Est-IO serves from;
  // estimate threads read it lock-free while later Put+Publish cycles
  // swap in fresh statistics behind them.
  if (Status published = catalog.Publish(); !published.ok()) {
    std::cerr << published.ToString() << '\n';
    return 1;
  }
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.snapshot();

  // --- 3. Estimates vs physically measured fetches. ---
  ScanGenerator scans(&dataset, 21);
  TablePrinter table({"sigma", "buffer", "estimated F", "measured F",
                      "rel err %"});
  TableShape shape{dataset.num_pages(), dataset.num_records()};
  for (double fraction : {0.02, 0.10, 0.40, 1.0}) {
    ScanRange scan = scans.FromFraction(fraction);
    for (uint64_t buffer : {60ULL, 250ULL, 1000ULL}) {
      ScanSpec query;
      query.sigma = scan.sigma;
      query.buffer_pages = buffer;
      auto estimate_or =
          EstIo::EstimateFromCatalog(*snapshot, "orders.key", query, shape);
      if (!estimate_or.ok()) {
        std::cerr << estimate_or.status().ToString() << '\n';
        return 1;
      }
      double estimate = estimate_or->fetches;

      auto pool = dataset.MakeDataPool(buffer);
      auto run_or = RunIndexScan(*dataset.index(), *dataset.table(),
                                 pool.get(),
                                 KeyRange::Closed(scan.lo_key, scan.hi_key));
      if (!run_or.ok()) {
        std::cerr << run_or.status().ToString() << '\n';
        return 1;
      }
      double actual = static_cast<double>(run_or->data_page_fetches);
      table.AddRow()
          .Cell(scan.sigma, 3)
          .Cell(buffer)
          .Cell(estimate, 1)
          .Cell(actual, 0)
          .Cell(actual > 0 ? 100.0 * (estimate - actual) / actual : 0.0, 1);
    }
  }
  table.Print(std::cout);
  std::cout << "\n(estimates use only the catalog entry; measurements run "
               "the scan\n through a real LRU buffer pool of the given "
               "size)\n";
  return 0;
}
