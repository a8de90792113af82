// Reproduces Figures 2-9: estimation-error-vs-buffer-size curves on the
// eight GWL-like columns (Tables 2-3), comparing EPFIS with ML, DC, SD and
// OT under the paper's protocol: 200 random scans (small/large mixed
// 50/50), buffer sizes max(300, 0.05T)..0.9T in 5% steps, aggregate error
// metric sum(e_i - a_i) / sum(a_i).
//
// Expected shape (paper): EPFIS lowest and stable (max < ~20%); ML bounded
// but drifting (max ~98%); DC/SD/OT unstable with errors up to orders of
// magnitude on unclustered columns.
//
// Use --column=INAP.UWID to run a single figure, --paper-scale for the
// full GWL sizes. --gate exits non-zero unless EPFIS has the lowest max
// |error| of every estimator on each column run.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "workload/gwl.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.5);
  std::string only = args.GetString("column", "");
  const bool gate = args.GetBool("gate", false);
  ExitOnBadArgs(args);
  const std::vector<GwlColumnSpec> columns = GwlColumns();
  if (!only.empty() &&
      std::none_of(columns.begin(), columns.end(),
                   [&](const GwlColumnSpec& c) { return c.name == only; })) {
    std::cerr << "error: --column=" << only << " matches no column; one of:";
    for (const GwlColumnSpec& c : columns) std::cerr << ' ' << c.name;
    std::cerr << '\n';
    return 2;
  }
  int columns_run = 0;
  int columns_lost = 0;

  std::cout << "Figures 2-9: error curves on GWL-like columns (scale="
            << options.scale << ", " << options.scans << " scans)\n\n";

  int figure = 2;
  for (const GwlColumnSpec& column : columns) {
    if (!only.empty() && column.name != only) {
      ++figure;
      continue;
    }
    GwlOptions gwl_options;
    gwl_options.scale = options.scale;
    gwl_options.seed = options.seed;
    auto synthesis = SynthesizeGwlColumn(column, gwl_options);
    if (!synthesis.ok()) {
      std::cerr << column.name << ": " << synthesis.status().ToString()
                << '\n';
      return 1;
    }

    ExperimentConfig config = PaperExperimentConfig(options);
    auto result = RunErrorExperiment(*synthesis->dataset, config);
    if (!result.ok()) {
      std::cerr << column.name << ": " << result.status().ToString() << '\n';
      return 1;
    }

    char label[96];
    std::snprintf(label, sizeof(label), "Figure %d: %s (C=%.3f, K=%.3f)",
                  figure, column.name.c_str(), synthesis->measured_c,
                  synthesis->calibrated_k);
    EmitExperiment(*result, label, options);
    ++columns_run;
    double epfis_max = MaxAbsErrorPct(*result, "EPFIS");
    for (const AlgorithmErrors& algo : result->algorithms) {
      if (MaxAbsErrorPct(*result, algo.name) < epfis_max) {
        std::cerr << "Figure " << figure << ": " << algo.name
                  << " beats EPFIS's max |error|\n";
        ++columns_lost;
        break;
      }
    }
    ++figure;
  }
  if (gate) {
    std::cout << "gate: EPFIS has the lowest max |error| on "
              << columns_run - columns_lost << " of " << columns_run
              << " columns\n";
    if (columns_run == 0 || columns_lost > 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
