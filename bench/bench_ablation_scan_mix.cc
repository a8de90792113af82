// Reproduces the §5 scan-mix paragraph: "We ran experiments involving only
// small scans, only large scans, and only full scans ... the results were
// very similar ... A general trend was that the algorithms other than
// Algorithm EPFIS performed worse as the scan size was made larger."
//
// Runs the error experiment under each mix and reports every algorithm's
// max |error| so that trend can be checked directly.

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
  std::cout << "Scan-mix sweep (scale=" << options.scale << ", "
            << options.scans << " scans per cell)\n\n";

  const ScanMix mixes[] = {ScanMix::kSmallOnly, ScanMix::kMixed,
                           ScanMix::kLargeOnly, ScanMix::kFullOnly};

  for (double k : {0.05, 0.5}) {
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
    TablePrinter table({"mix", "EPFIS", "ML", "DC", "SD", "OT"});
    for (ScanMix mix : mixes) {
      ExperimentConfig config = PaperExperimentConfig(options);
      config.mix = mix;
      if (mix == ScanMix::kFullOnly) config.num_scans = 4;
      auto result = RunErrorExperiment(**dataset, config);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << '\n';
        return 1;
      }
      table.AddRow().Cell(ScanMixName(mix));
      for (const AlgorithmErrors& algo : result->algorithms) {
        double max_err = 0;
        for (double e : algo.error_pct) {
          max_err = std::max(max_err, std::fabs(e));
        }
        table.Cell(max_err, 1);
      }
    }
    table.Print(std::cout);
    std::cout << "(cells are max |error| % over the buffer sweep)\n\n";
  }
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
