#ifndef EPFIS_BENCH_BENCH_COMMON_H_
#define EPFIS_BENCH_BENCH_COMMON_H_

// Shared helpers for the binaries in bench/.
//
// Every experiment-reproduction binary accepts:
//   --scale=F        linear size scale vs the paper (default per binary;
//                    1.0 = the paper's dataset sizes)
//   --scans=N        random scans per experiment (paper: 200)
//   --seed=S         base RNG seed
//   --csv=PATH       append machine-readable results
//
// Shapes are scale-invariant: running at --scale=1 reproduces the paper's
// sizes exactly but takes correspondingly longer on one core.
//
// Every binary exits with status 2, naming the argument, on a flag it
// does not read, a positional argument (also what `--scale 1` leaves
// behind) or a value that does not parse.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/experiment.h"
#include "harness/figures.h"
#include "util/arg_parser.h"
#include "workload/scan_gen.h"

namespace epfis {

struct BenchOptions {
  double scale = 0.1;
  int scans = 200;
  uint64_t seed = 42;
  std::string csv;
};

inline BenchOptions ParseBenchOptions(ArgParser& args, double default_scale) {
  BenchOptions options;
  options.scale = args.GetDouble("scale", default_scale);
  if (args.GetBool("paper-scale", false)) options.scale = 1.0;
  options.scans = static_cast<int>(args.GetInt("scans", 200));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  options.csv = args.GetString("csv", "");
  return options;
}

/// Call once every flag is read: exits with status 2, naming the bad
/// argument, unless ArgParser::Check passes.
inline void ExitOnBadArgs(const ArgParser& args) {
  Status status = args.Check();
  if (status.ok()) return;
  std::cerr << "error: " << status.message() << '\n';
  std::exit(2);
}

/// The paper's experiment configuration (§5), with the minimum buffer
/// floor scaled alongside the data so small runs sweep the same B/T
/// fractions the paper plots.
inline ExperimentConfig PaperExperimentConfig(const BenchOptions& options) {
  ExperimentConfig config;
  config.num_scans = options.scans;
  config.seed = options.seed;
  config.min_buffer_pages = static_cast<uint64_t>(300 * options.scale);
  if (config.min_buffer_pages < 8) config.min_buffer_pages = 8;
  return config;
}

inline void EmitExperiment(const ExperimentResult& result,
                           const std::string& label,
                           const BenchOptions& options) {
  std::cout << "=== " << label << " ===\n";
  PrintExperimentTable(result, std::cout);
  std::cout << SummarizeMaxErrors(result) << "\n\n";
  if (!options.csv.empty()) {
    Status s = WriteExperimentCsv(result, label, options.csv);
    if (!s.ok()) std::cerr << "CSV write failed: " << s.ToString() << '\n';
  }
}

}  // namespace epfis

#endif  // EPFIS_BENCH_BENCH_COMMON_H_
