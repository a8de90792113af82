// Extension (§6 future work): intra-query and multi-user contention.
//
// m concurrent index scans share one LRU pool. For stream counts 1..8 and
// a sweep of pool sizes this measures total fetches under sharing and
// compares two optimizer-usable models:
//   solo model        — each scan costed as if alone with the full pool
//                       (what EPFIS as published would do);
//   equal-share model — each scan costed alone with B/m of the pool.
// The equal-share model tracks reality closely for round-robin streams;
// the solo model underestimates badly as m grows — quantifying why the
// paper flags contention as necessary future work.

#include <iostream>

#include "bench/bench_common.h"
#include "harness/contention.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.05);
  InterleaveMode mode = args.GetString("interleave", "roundrobin") == "random"
                            ? InterleaveMode::kRandom
                            : InterleaveMode::kRoundRobin;
  ExitOnBadArgs(args);

  SyntheticSpec spec;
  spec.num_records = static_cast<uint64_t>(1'000'000 * options.scale);
  spec.num_distinct = static_cast<uint64_t>(10'000 * options.scale);
  spec.records_per_page = 40;
  spec.window_fraction = 0.3;
  spec.noise = 0.05;
  spec.seed = options.seed;
  auto dataset_or = GenerateSynthetic(spec);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status().ToString() << '\n';
    return 1;
  }
  Dataset& dataset = **dataset_or;
  uint64_t t = dataset.num_pages();

  std::cout << "Contention extension: " << "T=" << t
            << " pages, 10%-selectivity scans, "
            << (mode == InterleaveMode::kRandom ? "random" : "round-robin")
            << " interleave\n\n";

  ScanGenerator gen(&dataset, options.seed + 1);
  for (double buffer_frac : {0.1, 0.3, 0.6}) {
    uint64_t buffer = std::max<uint64_t>(
        4, static_cast<uint64_t>(buffer_frac * static_cast<double>(t)));
    std::cout << "--- shared buffer = " << buffer << " pages ("
              << 100 * buffer_frac << "% of T) ---\n";
    TablePrinter table({"streams", "measured F", "solo model",
                        "solo err%", "share model", "share err%",
                        "inflation"});
    for (int m : {1, 2, 4, 8}) {
      std::vector<ScanRange> scans;
      for (int s = 0; s < m; ++s) scans.push_back(gen.FromFraction(0.10));
      ContentionConfig config;
      config.buffer_pages = buffer;
      config.mode = mode;
      config.seed = options.seed;
      auto result = RunContentionExperiment(dataset, scans, config);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << '\n';
        return 1;
      }
      double measured = static_cast<double>(result->total_shared);
      double solo = static_cast<double>(result->total_solo);
      double share = static_cast<double>(result->total_share_model);
      table.AddRow()
          .Cell(static_cast<int64_t>(m))
          .Cell(result->total_shared)
          .Cell(result->total_solo)
          .Cell(100.0 * (solo - measured) / measured, 1)
          .Cell(result->total_share_model)
          .Cell(100.0 * (share - measured) / measured, 1)
          .Cell(result->InflationFactor(), 2);
    }
    table.Print(std::cout);
    std::cout << '\n';
  }
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
