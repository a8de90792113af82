// Ablation: the index-sargable-predicate urn model (§4.2, Equation for F).
//
// The paper derives — but never experimentally evaluates — an urn-model
// reduction for index-sargable predicates. This bench measures it: scans
// with a sargable filter of selectivity S are executed for several S
// values, comparing EPFIS's urn-corrected estimate against (a) the naive
// linear S-scaling the classic estimators would apply and (b) ground
// truth.

#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.05);
  ExitOnBadArgs(args);
  std::cout << "Ablation: sargable-predicate urn model (scale="
            << options.scale << ", " << options.scans << " scans)\n\n";

  for (double k : {0.1, 0.5}) {
    SyntheticSpec spec;
    spec.num_records = static_cast<uint64_t>(1'000'000 * options.scale);
    spec.num_distinct = static_cast<uint64_t>(10'000 * options.scale);
    spec.records_per_page = 40;
    spec.window_fraction = k;
    spec.noise = 0.05;
    spec.seed = options.seed;
    auto dataset = GenerateSynthetic(spec);
    if (!dataset.ok()) {
      std::cerr << dataset.status().ToString() << '\n';
      return 1;
    }

    std::cout << "--- K = " << k << " ---\n";
    TablePrinter table({"S", "EPFIS(urn) max|err|%", "ML(linear)",
                        "DC(linear)", "SD(linear)", "OT(linear)"});
    for (double s : {1.0, 0.8, 0.5, 0.2, 0.05}) {
      ExperimentConfig config = PaperExperimentConfig(options);
      config.sargable_selectivity = s;
      auto result = RunErrorExperiment(**dataset, config);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << '\n';
        return 1;
      }
      table.AddRow().Cell(s, 2);
      for (const AlgorithmErrors& algo : result->algorithms) {
        double max_err = 0;
        for (double e : algo.error_pct) {
          max_err = std::max(max_err, std::fabs(e));
        }
        table.Cell(max_err, 1);
      }
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Baselines scale their no-predicate estimate linearly by S;\n"
               "EPFIS applies the urn-model factor (1 - (1 - 1/Q)^k).\n";
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
