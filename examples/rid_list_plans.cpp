// RID-list plans and index ANDing — the §6 "future work" extension.
//
// The paper's core setting (§2) assumes records are fetched in index
// order, with no RID-list sort/union/intersection. This example enables
// the extension: it builds a table with TWO indexes, runs a conjunctive
// query three ways (ordered index scan, RID-sort fetch, index-AND), and
// shows the optimizer picking between them.
//
// Build & run:  ./build/examples/rid_list_plans

#include <iostream>

#include "catalog/catalog.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "exec/multi_index.h"
#include "exec/optimizer.h"
#include "exec/rid_list.h"
#include "util/arg_parser.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

using namespace epfis;

int main(int argc, char** argv) {
  // Takes no arguments: any argument is rejected, by name.
  if (Status status = ArgParser(argc, argv).Check(); !status.ok()) {
    std::cerr << "error: " << status.message() << '\n';
    return 2;
  }
  SyntheticSpec spec;
  spec.name = "sales";
  spec.num_records = 50'000;
  spec.num_distinct = 500;       // Primary column: "day".
  spec.secondary_distinct = 40;  // Secondary column: "region".
  spec.records_per_page = 40;
  spec.window_fraction = 0.5;  // Unclustered: fetch order matters a lot.
  spec.seed = 23;
  auto dataset_or = GenerateSynthetic(spec);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status().ToString() << '\n';
    return 1;
  }
  Dataset& dataset = **dataset_or;
  double n = static_cast<double>(dataset.num_records());
  double t = static_cast<double>(dataset.num_pages());

  // Query: day in [1, 50] AND region in [1, 10], no ORDER BY.
  KeyRange day_range = KeyRange::Closed(1, 50);
  KeyRange region_range = KeyRange::Closed(1, 10);
  double sigma_day = static_cast<double>(dataset.RecordsInRange(1, 50)) / n;
  double sigma_region =
      static_cast<double>(dataset.SecondaryRecordsInRange(1, 10)) / n;
  std::cout << "query: day in [1,50] (sigma=" << sigma_day
            << ") AND region in [1,10] (sigma=" << sigma_region << ")\n\n";

  const uint64_t kBuffer = 60;  // Small pool: ordered scans thrash.

  // Plan A: ordered index scan on day, residual filter on region.
  auto pool_a = dataset.MakeDataPool(kBuffer);
  auto scan = RunIndexScan(*dataset.index(), *dataset.table(), pool_a.get(),
                           day_range)
                  .value();

  // Plan B: RID-sort fetch from the day index (region still residual).
  RidList day_rids =
      RidList::FromIndexRange(*dataset.index(), day_range).value();
  auto pool_b = dataset.MakeDataPool(kBuffer);
  auto rid_fetch =
      FetchRidList(*dataset.table(), pool_b.get(), day_rids).value();

  // Plan C: index-AND both predicates, fetch only true matches.
  auto pool_c = dataset.MakeDataPool(kBuffer);
  auto anded = RunMultiIndexScan(*dataset.index(), day_range,
                                 *dataset.index2(), region_range,
                                 IndexCombineOp::kAnd, *dataset.table(),
                                 pool_c.get())
                   .value();

  TablePrinter table({"plan", "records fetched", "data page fetches"});
  table.AddRow()
      .Cell("A: ordered scan on day")
      .Cell(scan.records_fetched)
      .Cell(scan.data_page_fetches);
  table.AddRow()
      .Cell("B: RID-sort fetch (day)")
      .Cell(rid_fetch.records_fetched)
      .Cell(rid_fetch.data_page_fetches);
  table.AddRow()
      .Cell("C: index-AND day&region")
      .Cell(anded.rids_combined)
      .Cell(anded.data_page_fetches);
  table.Print(std::cout);
  std::cout << "\nestimates: RID-sort "
            << EstimateRidFetchPages(n, t, static_cast<double>(day_rids.size()))
            << " pages, index-AND "
            << EstimateMultiIndexFetchPages(n, t, sigma_day, sigma_region,
                                            IndexCombineOp::kAnd)
            << " pages\n\n";

  // The optimizer view: enable RID plans and watch the choice change with
  // the buffer.
  Catalog catalog;
  (void)catalog.RegisterTable("sales", dataset.table());
  (void)catalog.RegisterIndex("sales.day", "sales", 0, dataset.index());
  auto full_trace = dataset.FullIndexPageTrace().value();
  catalog.stats().Put(RunLruFit(full_trace, dataset.num_pages(),
                                dataset.num_distinct(), "sales.day")
                          .value());
  // The optimizer plans against the published snapshot.
  if (Status published = catalog.stats().Publish(); !published.ok()) {
    std::cerr << published.ToString() << '\n';
    return 1;
  }
  OptimizerOptions opt;
  opt.consider_rid_list = true;
  AccessPathOptimizer optimizer(&catalog, opt);

  Query query;
  query.table = "sales";
  query.column = 0;
  query.range = day_range;
  query.sigma = sigma_day;

  std::cout << "optimizer choice vs buffer (RID plans enabled):\n";
  TablePrinter choices({"buffer", "chosen plan", "est fetches"});
  for (uint64_t buffer : {20ULL, 200ULL, 1250ULL}) {
    AccessPlan plan = optimizer.Choose(query, buffer).value();
    choices.AddRow()
        .Cell(buffer)
        .Cell(plan.ToString().substr(0, plan.ToString().find(' ')))
        .Cell(plan.estimated_fetches, 1);
  }
  choices.Print(std::cout);
  std::cout << "\nwith ORDER BY day, the RID plan pays a sort and the "
               "ordered index scan\nwins back the large-buffer regime:\n";
  query.require_sorted = true;
  TablePrinter ordered({"buffer", "chosen plan", "total cost"});
  for (uint64_t buffer : {20ULL, 200ULL, 1250ULL}) {
    AccessPlan plan = optimizer.Choose(query, buffer).value();
    ordered.AddRow()
        .Cell(buffer)
        .Cell(plan.ToString().substr(0, plan.ToString().find(' ')))
        .Cell(plan.total_cost, 1);
  }
  ordered.Print(std::cout);
  return 0;
}
