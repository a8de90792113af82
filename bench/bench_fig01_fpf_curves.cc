// Reproduces Figure 1: full-index-scan page-fetch (FPF) curves — F/T as a
// function of B/T — for the five GWL columns the paper plots (CMAC.BRAN,
// CMAC.CEDT, INAP.APLD, INAP.MALD, INAP.UWID).
//
// The GWL database is proprietary; each column is synthesized to match the
// paper's published shape statistics (Tables 2-3) with the window
// parameter calibrated to the paper's clustering factor (see DESIGN.md).
// The qualitative shapes reproduce: strongly clustered columns (INAP.UWID,
// C=0.91) give flat curves near F/T = 1; weakly clustered ones
// (CMAC.BRAN, C=0.43) start many multiples of T higher and fall steeply
// as B grows.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "util/csv.h"
#include "epfis/lru_fit.h"
#include "workload/gwl.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.5);
  ExitOnBadArgs(args);
  std::cout << "Figure 1: FPF curves for GWL-like indexes (scale="
            << options.scale << ")\n\n";

  const char* kColumns[] = {"CMAC.BRAN", "CMAC.CEDT", "INAP.APLD",
                            "INAP.MALD", "INAP.UWID"};
  for (const char* name : kColumns) {
    auto column = GwlColumnByName(name);
    if (!column.ok()) {
      std::cerr << column.status().ToString() << '\n';
      return 1;
    }
    GwlOptions gwl_options;
    gwl_options.scale = options.scale;
    gwl_options.seed = options.seed;
    auto synthesis = SynthesizeGwlColumn(*column, gwl_options);
    if (!synthesis.ok()) {
      std::cerr << synthesis.status().ToString() << '\n';
      return 1;
    }

    auto trace = synthesis->dataset->FullIndexPageTrace();
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << '\n';
      return 1;
    }
    uint64_t t = synthesis->dataset->num_pages();
    auto points = SampleFpfCurve(*trace, /*b_min=*/std::max<uint64_t>(
                                     static_cast<uint64_t>(0.01 * t), 12),
                                 /*b_max=*/t, BufferSchedule::kPaperLinear);
    if (!points.ok()) {
      std::cerr << points.status().ToString() << '\n';
      return 1;
    }
    std::cout << "column " << name
              << ": target C=" << column->target_clustering
              << ", synthesized C=" << synthesis->measured_c << '\n';
    PrintNormalizedFpfCurve(name, *points, t, std::cout);
    std::cout << '\n';

    if (!options.csv.empty()) {
      CsvWriter writer;  // One file per run would clobber; append rows.
      std::ofstream out(options.csv, std::ios::app);
      for (const FpfPoint& p : *points) {
        out << name << ',' << p.buffer_size << ',' << p.fetches << ','
            << static_cast<double>(p.buffer_size) / static_cast<double>(t)
            << ','
            << static_cast<double>(p.fetches) / static_cast<double>(t)
            << '\n';
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
