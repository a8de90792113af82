// Ablation: sensitivity of EPFIS's accuracy to the number of approximating
// line segments (§4.1). The paper: "estimation errors do not change very
// much when the number of line segments is greater than five. Hence, we
// use six line segments."
//
// For each segment count 1..10 this runs the standard mixed-scan
// experiment on three synthetic datasets and reports EPFIS's max and mean
// absolute error, plus the catalog footprint (knot pairs stored).

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.05);
  ExitOnBadArgs(args);
  std::cout << "Ablation: segment count vs EPFIS error (scale="
            << options.scale << ", " << options.scans << " scans)\n\n";

  for (double k : {0.05, 0.2, 0.5}) {
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
    TablePrinter table(
        {"segments", "knots stored", "max|err|%", "mean|err|%"});
    for (int segments = 1; segments <= 10; ++segments) {
      ExperimentConfig config = PaperExperimentConfig(options);
      config.lru_fit.num_segments = segments;
      auto result = RunErrorExperiment(**dataset, config);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << '\n';
        return 1;
      }
      const auto& errors = result->algorithms[0].error_pct;
      double max_err = 0, sum = 0;
      for (double e : errors) {
        max_err = std::max(max_err, std::fabs(e));
        sum += std::fabs(e);
      }
      table.AddRow()
          .Cell(static_cast<int64_t>(segments))
          .Cell(static_cast<uint64_t>(result->stats.fpf->knots().size()))
          .Cell(max_err, 1)
          .Cell(sum / errors.size(), 1);
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expectation (paper §4.1): errors flatten out above ~5\n"
               "segments; 6 is the default.\n";
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
