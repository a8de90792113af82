// Old-vs-new Mattson kernel throughput, plus mmap trace ingestion.
//
// Generates a Zipf(theta) page trace (the reuse pattern of a secondary
// index over a hot/cold table), runs the legacy StackDistanceSimulator
// as the reference, and times every variant against it. Every variant's
// histogram is compared bit-for-bit with the legacy result — a perf win
// that changes a bin is a bug, and CI fails on it.
//
// Flags:
//   --refs=N      references in the trace        (default 10000000)
//   --pages=N     distinct data pages            (default refs/50)
//   --theta=F     Zipf skew                      (default 0.86)
//   --reps=N      timed repetitions, best-of-N   (default 3)
//   --gate-mrefs=F fail (exit 1) if the single-thread kernel run falls
//                 under F Mrefs/s (0 = no gate)  (default 0)
//   --seed=S      RNG seed                       (default 42)
//   --json=PATH   output JSON path               (default BENCH_kernel.json)
//   --trace=PATH  also save the trace there and time ingestion through
//                 OpenTraceSource (mmap)         (default: skip)
//
// Acceptance targets: kernel >= 3x legacy single-thread on the default
// 10M-reference Zipf(0.86) trace; every variant bit-identical; the
// numbers published to BENCH_kernel.json for CI tracking.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "buffer/stack_distance.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/trace_io.h"
#include "epfis/trace_source.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
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

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const uint64_t refs =
      static_cast<uint64_t>(args.GetInt("refs", 10'000'000));
  const uint64_t pages = static_cast<uint64_t>(
      args.GetInt("pages", static_cast<int64_t>(refs / 50)));
  const double theta = args.GetDouble("theta", 0.86);
  const int reps = static_cast<int>(args.GetInt("reps", 3));
  const double gate_mrefs = args.GetDouble("gate-mrefs", 0.0);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_kernel.json");
  const std::string trace_path = args.GetString("trace", "");
  ExitOnBadArgs(args);

  if (refs == 0 || pages == 0 || reps < 1) {
    std::cerr << "--refs, --pages, and --reps must be positive\n";
    return 1;
  }

  std::cout << "hardware threads: " << ThreadPool::DefaultThreadCount()
            << '\n';
  std::cout << "generating Zipf(" << theta << ") trace: " << refs
            << " refs over " << pages << " pages...\n";
  std::vector<PageId> trace = MakeZipfTrace(refs, pages, theta, seed);

  // Best-of-reps on each side: the container this runs on shares its
  // core, so single timings swing; the minimum is the least-disturbed
  // measurement of the actual work.
  double legacy_s = 0;
  StackDistanceSimulator legacy(trace.size());
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    StackDistanceSimulator run(trace.size());
    run.AccessAll(trace);
    double s = SecondsSince(t0);
    if (r == 0 || s < legacy_s) legacy_s = s;
    if (r + 1 == reps) legacy = std::move(run);
  }
  const StackDistanceHistogram& reference = legacy.histogram();

  // The headline single-thread kernel run.
  double kernel_s = 0;
  StackDistanceKernel kernel(trace.size());
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    StackDistanceKernel run(trace.size());
    run.AccessAll(trace);
    double s = SecondsSince(t0);
    if (r == 0 || s < kernel_s) kernel_s = s;
    if (r + 1 == reps) kernel = std::move(run);
  }

  bool identical = kernel.histogram() == reference;
  double speedup = legacy_s / kernel_s;
  double legacy_mrefs = static_cast<double>(refs) / legacy_s / 1e6;
  double kernel_mrefs = static_cast<double>(refs) / kernel_s / 1e6;

  TablePrinter table({"variant", "seconds", "Mrefs/s", "speedup"});
  table.AddRow()
      .Cell("legacy simulator")
      .Cell(legacy_s, 3)
      .Cell(legacy_mrefs, 2)
      .Cell(1.0, 2);
  table.AddRow()
      .Cell("cache-conscious kernel")
      .Cell(kernel_s, 3)
      .Cell(kernel_mrefs, 2)
      .Cell(speedup, 2);

  // Ingestion: the trace streamed back through OpenTraceSource (mmap on
  // any reasonable host).
  double mmap_s = 0;
  if (!trace_path.empty()) {
    if (Status s = SavePageTrace(trace, trace_path); !s.ok()) {
      std::cerr << s.ToString() << '\n';
      return 1;
    }
    auto source = OpenTraceSource(trace_path);
    if (!source.ok()) {
      std::cerr << source.status().ToString() << '\n';
      return 1;
    }
    auto t0 = std::chrono::steady_clock::now();
    StackDistanceKernel streamed((*source)->size_hint().value_or(refs));
    std::vector<PageId> chunk(size_t{1} << 16);
    while (true) {
      auto got = (*source)->Next(chunk.data(), chunk.size());
      if (!got.ok()) {
        std::cerr << got.status().ToString() << '\n';
        return 1;
      }
      if (*got == 0) break;
      streamed.AccessAll(chunk.data(), *got);
    }
    mmap_s = SecondsSince(t0);
    identical = identical && (streamed.histogram() == reference);
    table.AddRow()
        .Cell("kernel, mmap-streamed trace")
        .Cell(mmap_s, 3)
        .Cell(static_cast<double>(refs) / mmap_s / 1e6, 2)
        .Cell(legacy_s / mmap_s, 2);
  }

  table.Print(std::cout);
  std::cout << "bit-identical histograms: " << (identical ? "yes" : "NO (bug!)")
            << "\nkernel compactions: " << kernel.compactions() << '\n';

  std::ofstream json(json_path, std::ios::trunc);
  if (!json.is_open()) {
    std::cerr << "cannot write " << json_path << '\n';
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"mattson_kernel\",\n"
       << "  \"refs\": " << refs << ",\n"
       << "  \"pages\": " << pages << ",\n"
       << "  \"theta\": " << theta << ",\n"
       << "  \"hardware_threads\": " << ThreadPool::DefaultThreadCount()
       << ",\n"
       << "  \"legacy_seconds\": " << legacy_s << ",\n"
       << "  \"kernel_seconds\": " << kernel_s << ",\n"
       << "  \"legacy_mrefs_per_s\": " << legacy_mrefs << ",\n"
       << "  \"kernel_mrefs_per_s\": " << kernel_mrefs << ",\n"
       << "  \"single_thread_speedup\": " << speedup << ",\n";
  if (mmap_s > 0) {
    json << "  \"mmap_stream_seconds\": " << mmap_s << ",\n";
  }
  json << "  \"kernel_compactions\": " << kernel.compactions() << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << '\n';

  if (gate_mrefs > 0 && kernel_mrefs < gate_mrefs) {
    std::cerr << "FAIL: kernel " << kernel_mrefs << " Mrefs/s under the "
              << gate_mrefs << " Mrefs/s floor\n";
    return 1;
  }
  return identical ? 0 : 1;
}
