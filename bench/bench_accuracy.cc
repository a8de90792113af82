// Estimator-accuracy telemetry harness: replays the paper's §5-style
// synthetic workload, compares EstIo::Estimate against exact LRU ground
// truth for every scan and buffer size, and dumps the (sigma, B, C)
// relative-error histograms as JSON — the CI regression artifact for the
// paper's Figures 4-7 error methodology. Also prints the global
// MetricsRegistry snapshot, so one run shows the whole pipeline's
// counters and stage timings.
//
// Flags:
//   --records=N       records per dataset              (default 200000)
//   --distinct=N      distinct key values              (default 2000)
//   --rpp=N           records per page                 (default 40)
//   --theta=F         Zipf skew                        (default 0.86)
//   --noise=F         placement noise                  (default 0.05)
//   --windows=LIST    placement windows K, comma-sep   (default 0,0.1,0.5,1)
//   --buffers=LIST    buffer fractions of T            (default 0.05,0.1,0.25,0.5,1)
//   --scans=N         scans per dataset                (default 100)
//   --min-buffer=N    smallest buffer ever used        (default 12)
//   --seed=S          RNG seed                         (default 42)
//   --sample-rate=F   SHARDS rate of the statistics pass (default 1 = exact)
//   --sample-max-pages=K  target pages, rate K/T (default 0 = off)
//   --json=PATH       error-histogram JSON             (default ACCURACY_errors.json)
//   --max-mean-abs-err=F  exit non-zero if the mean absolute relative
//                         error exceeds F (0 disables; default 0)

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/accuracy.h"
#include "obs/accuracy.h"
#include "obs/metrics.h"
#include "util/arg_parser.h"

using namespace epfis;

namespace {

std::vector<double> ParseList(const std::string& text,
                              std::vector<double> fallback) {
  if (text.empty()) return fallback;
  std::vector<double> values;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) values.push_back(std::stod(item));
  }
  return values.empty() ? fallback : values;
}

void EmitList(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    out << values[i];
  }
  out << ']';
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  AccuracyHarnessConfig config;
  config.num_records =
      static_cast<uint64_t>(args.GetInt("records", 200'000));
  config.num_distinct = static_cast<uint64_t>(args.GetInt("distinct", 2'000));
  config.records_per_page = static_cast<uint32_t>(args.GetInt("rpp", 40));
  config.theta = args.GetDouble("theta", 0.86);
  config.noise = args.GetDouble("noise", 0.05);
  config.window_fractions =
      ParseList(args.GetString("windows", ""), config.window_fractions);
  config.buffer_fractions =
      ParseList(args.GetString("buffers", ""), config.buffer_fractions);
  config.scans_per_dataset = static_cast<int>(args.GetInt("scans", 100));
  config.min_buffer_pages =
      static_cast<uint64_t>(args.GetInt("min-buffer", 12));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  config.lru_fit.sample_rate = args.GetDouble("sample-rate", 1.0);
  config.lru_fit.sample_max_pages =
      static_cast<uint64_t>(args.GetInt("sample-max-pages", 0));
  const std::string json_path =
      args.GetString("json", "ACCURACY_errors.json");
  const double max_mean_abs_err = args.GetDouble("max-mean-abs-err", 0.0);

  AccuracyTracker tracker;
  auto report = RunAccuracyHarness(config, &tracker);
  if (!report.ok()) {
    std::cerr << report.status().ToString() << '\n';
    return 1;
  }

  std::cout << "datasets:\n";
  for (const AccuracyDatasetReport& dataset : report->datasets) {
    std::cout << "  K=" << dataset.window_fraction
              << " T=" << dataset.table_pages << " N=" << dataset.records
              << " C=" << dataset.clustering << '\n';
  }
  std::cout << "scans=" << report->scans_evaluated
            << " estimates=" << report->estimates_evaluated << '\n'
            << tracker.ToText();

  MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  std::cout << "\nmetrics snapshot:\n" << metrics.ToText();

  std::ofstream json(json_path, std::ios::trunc);
  if (!json.is_open()) {
    std::cerr << "cannot write " << json_path << '\n';
    return 1;
  }
  json << "{\n  \"bench\": \"accuracy_harness\",\n  \"config\": {\n"
       << "    \"records\": " << config.num_records << ",\n"
       << "    \"distinct\": " << config.num_distinct << ",\n"
       << "    \"records_per_page\": " << config.records_per_page << ",\n"
       << "    \"theta\": " << config.theta << ",\n"
       << "    \"noise\": " << config.noise << ",\n"
       << "    \"windows\": ";
  EmitList(json, config.window_fractions);
  json << ",\n    \"buffers\": ";
  EmitList(json, config.buffer_fractions);
  json << ",\n    \"scans_per_dataset\": " << config.scans_per_dataset
       << ",\n    \"seed\": " << config.seed
       << ",\n    \"sample_rate\": " << config.lru_fit.sample_rate
       << ",\n    \"sample_max_pages\": " << config.lru_fit.sample_max_pages
       << "\n  },\n  \"datasets\": [";
  for (size_t i = 0; i < report->datasets.size(); ++i) {
    const AccuracyDatasetReport& dataset = report->datasets[i];
    if (i > 0) json << ',';
    json << "\n    {\"window_fraction\": " << dataset.window_fraction
         << ", \"table_pages\": " << dataset.table_pages
         << ", \"records\": " << dataset.records
         << ", \"clustering\": " << dataset.clustering << '}';
  }
  json << "\n  ],\n  \"errors\": " << tracker.ToJson()
       << ",\n  \"metrics\": " << metrics.ToJson() << "\n}\n";
  std::cout << "wrote " << json_path << '\n';

  if (max_mean_abs_err > 0.0 &&
      tracker.MeanAbsRelativeError() > max_mean_abs_err) {
    std::cerr << "mean abs relative error " << tracker.MeanAbsRelativeError()
              << " exceeds --max-mean-abs-err=" << max_mean_abs_err << '\n';
    return 1;
  }
  return 0;
}
