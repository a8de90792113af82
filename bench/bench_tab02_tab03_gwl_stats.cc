// Reproduces Tables 2 and 3: the shapes of the GWL benchmark tables
// (pages, records/page) and columns (column cardinality, clustering factor
// C) — as synthesized by this repository's GWL substitution, side by side
// with the paper's published values.
//
// Table 2/3 numbers are inputs to the synthesis (pages, records/page,
// cardinality scale exactly; C is *calibrated*), so this bench is the
// verification that the substitution actually matches the published
// statistics. It also reports the calibrated window parameter K, and the
// SD-exponent variants' cluster ratios for reference.
//
// --gate exits non-zero unless every column's C (measured by LRU-Fit on
// the synthesized column) is within 2 points of Table 3.

#include <cmath>
#include <iostream>

#include "baselines/sd.h"
#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/gwl.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = ParseBenchOptions(argc, argv, /*default_scale=*/0.5);
  const bool gate = ArgParser(argc, argv).GetBool("gate", false);
  constexpr double kGatePoints = 2.0;
  int off_target = 0;
  std::cout << "Tables 2 & 3: GWL-like database statistics (scale="
            << options.scale << ", paper values at scale=1)\n\n";

  TablePrinter table2({"table.column", "pages(paper)", "pages(ours)",
                       "rec/page(paper)", "rec/page(ours)"});
  TablePrinter table3({"table.column", "colcard(paper)", "colcard(ours)",
                       "C%(paper)", "C%(ours)", "calibrated K"});

  for (const GwlColumnSpec& column : GwlColumns()) {
    GwlOptions gwl_options;
    gwl_options.scale = options.scale;
    gwl_options.seed = options.seed;
    auto synthesis = SynthesizeGwlColumn(column, gwl_options);
    if (!synthesis.ok()) {
      std::cerr << column.name << ": " << synthesis.status().ToString()
                << '\n';
      return 1;
    }
    const Dataset& dataset = *synthesis->dataset;

    table2.AddRow()
        .Cell(column.name)
        .Cell(static_cast<uint64_t>(column.pages))
        .Cell(static_cast<uint64_t>(dataset.num_pages()))
        .Cell(static_cast<uint64_t>(column.records_per_page))
        .Cell(static_cast<uint64_t>(
            dataset.num_records() / dataset.num_pages()));

    table3.AddRow()
        .Cell(column.name)
        .Cell(column.column_cardinality)
        .Cell(dataset.num_distinct())
        .Cell(100.0 * column.target_clustering, 1)
        .Cell(100.0 * synthesis->measured_c, 1)
        .Cell(synthesis->calibrated_k, 4);
    double miss =
        100.0 * std::abs(synthesis->measured_c - column.target_clustering);
    if (miss > kGatePoints) {
      std::cerr << column.name << ": C is " << miss
                << " points from Table 3\n";
      ++off_target;
    }
  }

  std::cout << "Table 2 (table shapes; paper values are at scale=1):\n";
  table2.Print(std::cout);
  std::cout << "\nTable 3 (column cardinality and clustering factor):\n";
  table3.Print(std::cout);
  std::cout << "\nNote: pages and colcard scale linearly with --scale;\n"
               "records/page and C are scale-invariant targets.\n";
  if (gate) {
    std::cout << "gate: C within " << kGatePoints
              << " points of Table 3 on every column: "
              << (off_target == 0 ? "yes" : "NO") << '\n';
    if (off_target > 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
