// Reproduces Figures 10-21: estimation-error-vs-buffer-size curves for the
// synthetic datasets of §5.2 — the theta x K grid with R = 40 — comparing
// EPFIS against ML, DC, SD and OT under the paper's 200-scan mixed
// workload and 5%..90% buffer sweep.
//
// Paper parameters: N = 10^6, I = 10^4, R = 40, theta in {0, 0.86},
// K in {0, 0.05, 0.10, 0.20, 0.50, 1}, noise 5%. The default --scale=0.1
// shrinks N and I proportionally (100k records) so the full grid runs in
// a few seconds on one core; --paper-scale runs the full sizes, in about
// 30 s in a Release build.
//
// Extra flags: --theta=..., --k=... restrict the grid; --r=... overrides
// records-per-page (the paper also ran R = 20 and 80 with similar
// results). --gate exits non-zero unless EPFIS's max |error| over the
// grid is <= 48% and EPFIS has the lowest max |error| of every
// estimator in each cell.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "harness/figures.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.1);

  std::vector<double> thetas = {0.0, 0.86};
  std::vector<double> ks = {0.0, 0.05, 0.10, 0.20, 0.50, 1.0};
  if (args.Has("theta")) thetas = {args.GetDouble("theta", 0.0)};
  if (args.Has("k")) ks = {args.GetDouble("k", 0.0)};
  uint32_t records_per_page =
      static_cast<uint32_t>(args.GetInt("r", 40));
  const bool gate = args.GetBool("gate", false);
  ExitOnBadArgs(args);
  constexpr double kGateMaxErrPct = 48.0;
  double epfis_max = 0.0;
  int cells_lost = 0;

  SyntheticSpec base;
  base.num_records = static_cast<uint64_t>(1'000'000 * options.scale);
  base.num_distinct = static_cast<uint64_t>(10'000 * options.scale);
  if (base.num_distinct < 1) base.num_distinct = 1;
  base.records_per_page = records_per_page;
  base.noise = 0.05;
  base.seed = options.seed;

  std::cout << "Figures 10-21: synthetic error curves (N=" << base.num_records
            << ", I=" << base.num_distinct << ", R=" << records_per_page
            << ", " << options.scans << " scans, scale=" << options.scale
            << ")\n\n";

  int figure = 10;
  for (double theta : thetas) {
    for (double k : ks) {
      SyntheticSpec spec = base;
      spec.theta = theta;
      spec.window_fraction = k;
      spec.name = "synth_theta" + std::to_string(theta) + "_k" +
                  std::to_string(k);
      auto dataset = GenerateSynthetic(spec);
      if (!dataset.ok()) {
        std::cerr << "generation failed: " << dataset.status().ToString()
                  << '\n';
        return 1;
      }
      ExperimentConfig config = PaperExperimentConfig(options);
      auto result = RunErrorExperiment(**dataset, config);
      if (!result.ok()) {
        std::cerr << "experiment failed: " << result.status().ToString()
                  << '\n';
        return 1;
      }
      char label[96];
      std::snprintf(label, sizeof(label),
                    "Figure %d: theta=%.2f K=%.2f (C=%.3f)", figure, theta,
                    k, result->stats.clustering);
      EmitExperiment(*result, label, options);
      double cell_max = MaxAbsErrorPct(*result, "EPFIS");
      epfis_max = std::max(epfis_max, cell_max);
      for (const AlgorithmErrors& algo : result->algorithms) {
        if (MaxAbsErrorPct(*result, algo.name) < cell_max) {
          std::cerr << "Figure " << figure << ": " << algo.name
                    << " beats EPFIS's max |error|\n";
          ++cells_lost;
          break;
        }
      }
      ++figure;
    }
  }
  if (gate) {
    bool pass = epfis_max <= kGateMaxErrPct && cells_lost == 0;
    std::cout << "gate: EPFIS max |error| " << epfis_max << "% (bound "
              << kGateMaxErrPct << "%), lowest max in every cell: "
              << (cells_lost == 0 ? "yes" : "NO") << '\n';
    if (!pass) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
