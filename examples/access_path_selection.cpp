// Access-path selection: the paper's motivating use case (§2).
//
// A cost-based optimizer must choose between a table scan and a partial
// index scan; the right answer depends on the selectivity AND the buffer
// size. This example builds an unclustered table, collects EPFIS
// statistics, then sweeps (sigma, B) showing where the optimizer's choice
// flips — and validates a few cells against physically executed plans.
//
// Build & run:  ./build/examples/access_path_selection

#include <iostream>

#include "catalog/catalog.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "exec/optimizer.h"
#include "exec/table_scan.h"
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
  SyntheticSpec spec;
  spec.name = "events";
  spec.num_records = 60'000;
  spec.num_distinct = 600;
  spec.records_per_page = 40;
  spec.window_fraction = 0.6;  // Quite unclustered.
  spec.seed = 13;
  auto dataset_or = GenerateSynthetic(spec);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status().ToString() << '\n';
    return 1;
  }
  Dataset& dataset = **dataset_or;

  Catalog catalog;
  (void)catalog.RegisterTable("events", dataset.table());
  (void)catalog.RegisterIndex("events.key", "events", 0, dataset.index());
  auto trace = dataset.FullIndexPageTrace().value();
  catalog.stats().Put(RunLruFit(trace, dataset.num_pages(),
                                dataset.num_distinct(), "events.key")
                          .value());
  // The optimizer plans against the published snapshot.
  if (Status published = catalog.stats().Publish(); !published.ok()) {
    std::cerr << published.ToString() << '\n';
    return 1;
  }

  AccessPathOptimizer optimizer(&catalog);
  ScanGenerator scans(&dataset, 3);

  std::cout << "Plan choice grid (table T = " << dataset.num_pages()
            << " pages):\n\n";
  TablePrinter grid({"sigma \\ B", "25", "125", "500", "1250"});
  const uint64_t kBuffers[] = {25, 125, 500, 1250};
  for (double fraction : {0.005, 0.02, 0.08, 0.4, 0.9}) {
    ScanRange scan = scans.FromFraction(fraction);
    grid.AddRow().Cell(scan.sigma, 3);
    for (uint64_t buffer : kBuffers) {
      Query query;
      query.table = "events";
      query.column = 0;
      query.range = KeyRange::Closed(scan.lo_key, scan.hi_key);
      query.sigma = scan.sigma;
      auto plan = optimizer.Choose(query, buffer);
      if (!plan.ok()) {
        std::cerr << plan.status().ToString() << '\n';
        return 1;
      }
      grid.Cell(plan->type == AccessPlan::Type::kIndexScan ? "index"
                                                           : "table");
    }
  }
  grid.Print(std::cout);
  std::cout << "\nLow selectivity favors the index everywhere; large "
               "unclustered scans\nneed a big buffer before the index "
               "beats a sequential table scan.\n\n";

  // Validate one flip against real executions.
  ScanRange scan = scans.FromFraction(0.4);
  Query query;
  query.table = "events";
  query.column = 0;
  query.range = KeyRange::Closed(scan.lo_key, scan.hi_key);
  query.sigma = scan.sigma;

  std::cout << "Validation at sigma = " << scan.sigma << ":\n";
  TablePrinter check({"buffer", "chosen plan", "est fetches",
                      "measured index F", "measured table F"});
  for (uint64_t buffer : {25ULL, 1250ULL}) {
    auto plan = optimizer.Choose(query, buffer).value();
    auto index_pool = dataset.MakeDataPool(buffer);
    auto index_run = RunIndexScan(*dataset.index(), *dataset.table(),
                                  index_pool.get(), query.range)
                         .value();
    auto table_pool = dataset.MakeDataPool(buffer);
    auto table_run =
        RunTableScan(*dataset.table(), table_pool.get(), query.range, 0)
            .value();
    check.AddRow()
        .Cell(buffer)
        .Cell(plan.type == AccessPlan::Type::kIndexScan ? "index scan"
                                                        : "table scan")
        .Cell(plan.estimated_fetches, 1)
        .Cell(index_run.data_page_fetches)
        .Cell(table_run.pages_fetched);
  }
  check.Print(std::cout);
  return 0;
}
