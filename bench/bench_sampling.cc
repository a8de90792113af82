// SHARDS-sampled vs exact Mattson kernel: speed and FPF-curve error.
//
// Generates the same Zipf(theta) page trace as bench_kernel, runs the
// exact cache-conscious kernel once as the baseline, then sweeps the
// sampled kernel over a set of sampling rates. For each rate it reports
// single-thread runtime, speedup over the exact kernel, and the mean /
// max relative error of the rescaled FPF curve against the exact curve
// over a buffer-size sweep. The R = 1.0 leg doubles as a property check:
// its histogram must be bit-identical to the exact kernel's, and the
// binary exits non-zero if it is not.
//
// Flags:
//   --refs=N          references in the trace     (default 10000000)
//   --pages=N         distinct data pages         (default refs/50)
//   --theta=F         Zipf skew                   (default 0.86)
//   --rates=LIST      sampling rates, comma-sep   (default 1.0,0.1,0.01,0.001)
//   --reps=N          timed repetitions, best-of-N (default 3)
//   --seed=S          RNG seed                    (default 42)
//   --json=PATH       output JSON path            (default BENCH_sampling.json)
//   --gate-rate=F     rate the error gate applies to (0 disables; default 0)
//   --gate-err=F      exit non-zero if the gated rate's mean relative
//                     FPF error exceeds this      (default 0.05)
//   --gate-speedup=F  exit non-zero if the gated rate's speedup falls
//                     below this (0 disables; default 0)
//
// Acceptance target (ISSUE 4): >= 10x single-thread speedup at R = 0.01
// on the default 10M-reference Zipf(0.86) trace, with mean relative FPF
// error <= 5%.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "buffer/sampling.h"
#include "buffer/stack_distance_kernel.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/zipf.h"

using namespace epfis;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<PageId> MakeZipfTrace(uint64_t refs, uint64_t pages,
                                  double theta, uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf = ZipfDistribution::Make(pages, theta).value();
  std::vector<PageId> trace;
  trace.reserve(refs);
  for (uint64_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(zipf.Sample(rng) - 1));
  }
  return trace;
}

// ~20 log-spaced buffer sizes from a small buffer up to the page count:
// the whole FPF curve, weighted the way the paper's modeled range is.
std::vector<uint64_t> BufferSweep(uint64_t pages) {
  std::vector<uint64_t> sizes;
  double b = std::max<double>(12.0, static_cast<double>(pages) * 0.005);
  while (b < static_cast<double>(pages)) {
    sizes.push_back(static_cast<uint64_t>(b));
    b *= 1.35;
  }
  sizes.push_back(pages);
  return sizes;
}

struct RateResult {
  double rate = 1.0;
  double seconds = 0;
  double speedup = 1.0;
  double mean_rel_err = 0;
  double max_rel_err = 0;
  uint64_t sampled_refs = 0;
  uint64_t sampled_pages = 0;
  bool bit_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const uint64_t refs =
      static_cast<uint64_t>(args.GetInt("refs", 10'000'000));
  const uint64_t pages = static_cast<uint64_t>(
      args.GetInt("pages", static_cast<int64_t>(refs / 50)));
  const double theta = args.GetDouble("theta", 0.86);
  const int reps = static_cast<int>(args.GetInt("reps", 3));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_sampling.json");
  std::vector<double> rates =
      args.GetDoubleList("rates", {1.0, 0.1, 0.01, 0.001});
  const double gate_rate = args.GetDouble("gate-rate", 0.0);
  const double gate_err = args.GetDouble("gate-err", 0.05);
  const double gate_speedup = args.GetDouble("gate-speedup", 0.0);
  ExitOnBadArgs(args);

  if (refs == 0 || pages == 0 || reps < 1 || rates.empty()) {
    std::cerr << "--refs, --pages, --reps, and --rates must be positive\n";
    return 1;
  }

  std::cout << "generating Zipf(" << theta << ") trace: " << refs
            << " refs over " << pages << " pages...\n";
  std::vector<PageId> trace = MakeZipfTrace(refs, pages, theta, seed);
  std::vector<uint64_t> sweep = BufferSweep(pages);

  double exact_s = 0;
  StackDistanceKernel exact(trace.size());
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    StackDistanceKernel run(trace.size());
    run.AccessAll(trace);
    double s = SecondsSince(t0);
    if (r == 0 || s < exact_s) exact_s = s;
    if (r + 1 == reps) exact = std::move(run);
  }
  std::vector<double> exact_curve;
  exact_curve.reserve(sweep.size());
  for (uint64_t b : sweep) {
    exact_curve.push_back(static_cast<double>(exact.Fetches(b)));
  }

  bool ok = true;
  std::vector<RateResult> results;
  for (double rate : rates) {
    SamplingOptions sampling;
    sampling.rate = rate;
    if (!sampling.Validate().ok()) {
      std::cerr << "invalid rate " << rate << '\n';
      return 1;
    }
    RateResult result;
    result.rate = rate;
    StackDistanceKernel kernel(trace.size(), 0, sampling);
    for (int r = 0; r < reps; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      StackDistanceKernel run(trace.size(), 0, sampling);
      run.AccessAll(trace);
      double s = SecondsSince(t0);
      if (r == 0 || s < result.seconds) result.seconds = s;
      if (r + 1 == reps) kernel = std::move(run);
    }
    result.speedup = exact_s / result.seconds;
    SampledStackDistances sampled = kernel.sampled_result();
    result.sampled_refs = sampled.sampling.sampled_refs;
    result.sampled_pages = kernel.sampled_pages();
    result.bit_identical = kernel.histogram() == exact.histogram();
    for (size_t i = 0; i < sweep.size(); ++i) {
      if (exact_curve[i] <= 0) continue;
      double err = std::abs(static_cast<double>(sampled.Fetches(sweep[i])) -
                            exact_curve[i]) /
                   exact_curve[i];
      result.mean_rel_err += err;
      result.max_rel_err = std::max(result.max_rel_err, err);
    }
    result.mean_rel_err /= static_cast<double>(sweep.size());
    results.push_back(result);

    if (rate == 1.0 && !result.bit_identical) {
      std::cerr << "BUG: R=1.0 run is not bit-identical to the exact "
                   "kernel\n";
      ok = false;
    }
    if (gate_rate > 0 && rate == gate_rate) {
      if (result.mean_rel_err > gate_err) {
        std::cerr << "GATE: mean relative FPF error " << result.mean_rel_err
                  << " at R=" << rate << " exceeds " << gate_err << '\n';
        ok = false;
      }
      if (gate_speedup > 0 && result.speedup < gate_speedup) {
        std::cerr << "GATE: speedup " << result.speedup << " at R=" << rate
                  << " below " << gate_speedup << '\n';
        ok = false;
      }
    }
  }

  TablePrinter table({"rate", "seconds", "speedup", "sampled refs",
                      "sampled pages", "mean err", "max err"});
  for (const RateResult& r : results) {
    table.AddRow()
        .Cell(r.rate, 3)
        .Cell(r.seconds, 3)
        .Cell(r.speedup, 2)
        .Cell(r.sampled_refs)
        .Cell(r.sampled_pages)
        .Cell(r.mean_rel_err, 4)
        .Cell(r.max_rel_err, 4);
  }
  table.Print(std::cout);
  std::cout << "exact kernel: " << exact_s << " s ("
            << static_cast<double>(refs) / exact_s / 1e6 << " Mrefs/s)\n";

  std::ofstream json(json_path, std::ios::trunc);
  if (!json.is_open()) {
    std::cerr << "cannot write " << json_path << '\n';
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"shards_sampling\",\n"
       << "  \"refs\": " << refs << ",\n"
       << "  \"pages\": " << pages << ",\n"
       << "  \"theta\": " << theta << ",\n"
       << "  \"exact_seconds\": " << exact_s << ",\n"
       << "  \"rates\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RateResult& r = results[i];
    json << "    {\"rate\": " << r.rate
         << ", \"seconds\": " << r.seconds
         << ", \"speedup\": " << r.speedup
         << ", \"sampled_refs\": " << r.sampled_refs
         << ", \"sampled_pages\": " << r.sampled_pages
         << ", \"mean_rel_err\": " << r.mean_rel_err
         << ", \"max_rel_err\": " << r.max_rel_err
         << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << json_path << '\n';

  return ok ? 0 : 1;
}
