// Ablation: the phi ambiguity in Est-IO's small-sigma correction (§4.2).
//
// The paper prints phi = max(1, B/T), but its prose ("when sigma << 1/3
// and sigma << B/T") suggests phi = min(1, B/T). This binary runs the same
// §5-style experiment with three EPFIS variants — phi=max (as printed),
// phi=min, and no correction at all — on a sweep of window parameters, so
// the choice can be judged on data.

#include <cmath>
#include <cstdio>
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
  std::vector<double> ks = {0.05, 0.20, 0.50};
  if (args.Has("k")) ks = {args.GetDouble("k", 0.05)};
  ExitOnBadArgs(args);

  std::cout << "Ablation: phi interpretation in the small-sigma correction\n"
            << "(scale=" << options.scale << ", " << options.scans
            << " scans per cell)\n\n";

  struct Variant {
    const char* name;
    EstIoOptions est_io;
  };
  EstIoOptions as_printed;  // phi = max(1, B/T).
  EstIoOptions phi_min;
  phi_min.phi_mode = PhiMode::kMin;
  EstIoOptions no_corr;
  no_corr.enable_correction = false;
  const Variant variants[] = {
      {"phi=max (as printed)", as_printed},
      {"phi=min (prose)", phi_min},
      {"no correction", no_corr},
  };

  for (double k : ks) {
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
    TablePrinter table({"variant", "max|err|%", "mean|err|%"});
    for (const Variant& variant : variants) {
      ExperimentConfig config = PaperExperimentConfig(options);
      config.est_io = variant.est_io;
      // Small scans only: the correction term exists for exactly this
      // regime, so judge it where it acts.
      config.mix = ScanMix::kSmallOnly;
      auto result = RunErrorExperiment(**dataset, config);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << '\n';
        return 1;
      }
      double max_err = MaxAbsErrorPct(*result, "EPFIS");
      double sum = 0;
      for (double e : result->algorithms[0].error_pct) sum += std::fabs(e);
      double mean = sum / result->algorithms[0].error_pct.size();
      table.AddRow().Cell(std::string(variant.name)).Cell(max_err, 1).Cell(
          mean, 1);

      char label[64];
      std::snprintf(label, sizeof(label), "phi-ablation K=%.2f %s", k,
                    variant.name);
      if (!options.csv.empty()) {
        Status s = WriteExperimentCsv(*result, label, options.csv);
        if (!s.ok()) std::cerr << s.ToString() << '\n';
      }
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
