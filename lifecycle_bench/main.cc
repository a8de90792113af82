// EPFIS lifecycle benchmark: one binary, three closed-loop workloads over
// the paper's lifecycle (see workload.h and README.md in this directory).
//
//   lifecycle_bench --workload {refresh,query,drift} --seed N --seconds S
//                   --trace {0,1} [--work-dir DIR] [--spans-dir DIR]
//                   [--source-digest HEX] [--git-sha SHA]
//
// Flags take `--flag value` or `--flag=value`; unknown flags are errors.
// The run is kRounds rounds; each sets the workload up afresh and then
// repeats lifecycle iterations for its share of --seconds. With --trace 0 the
// closing JSON line carries the end-to-end metrics; with --trace 1 the run
// alternates untraced and traced iterations and the JSON carries the
// per-layer metrics, including the tracing overhead. Exits non-zero when
// any output check fails.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workload.h"

// LCB_COMPILER and LCB_CXX_FLAGS come from CMakeLists.txt (provenance).

namespace lcb {
namespace {

/// Set-ups per run (see Run).
constexpr int kRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string spans_dir;
  std::string source_digest = "unknown";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument: " << arg << '\n';
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "flag --" << name << " needs a value\n";
      return false;
    }
    values[name] = value;
  }
  try {
    for (const auto& [name, value] : values) {
      if (name == "workload") {
        args->workload = value;
      } else if (name == "seed") {
        args->seed = std::stoull(value);
      } else if (name == "seconds") {
        args->seconds = std::stod(value);
      } else if (name == "trace") {
        args->trace = std::stoi(value);
      } else if (name == "work-dir") {
        args->work_dir = value;
      } else if (name == "spans-dir") {
        args->spans_dir = value;
      } else if (name == "source-digest") {
        args->source_digest = value;
      } else if (name == "git-sha") {
        args->git_sha = value;
      } else {
        std::cerr << "unknown flag --" << name << '\n';
        return false;
      }
    }
  } catch (const std::exception&) {
    std::cerr << "malformed flag value\n";
    return false;
  }
  if (args->workload != "refresh" && args->workload != "query" &&
      args->workload != "drift") {
    std::cerr << "--workload must be refresh, query or drift\n";
    return false;
  }
  if (!(args->seconds > 0.0) || (args->trace != 0 && args->trace != 1) ||
      values.count("seed") == 0) {
    std::cerr << "--seed, --seconds > 0 and --trace 0|1 are required\n";
    return false;
  }
  if (args->work_dir.empty()) args->work_dir = "lifecycle_bench_work";
  return true;
}

/// Timings from an unoptimized or sanitized build are refused.
const char* BuildRefusal() {
#ifndef __OPTIMIZE__
  return "built without optimization (__OPTIMIZE__ undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  if (std::string(LCB_CXX_FLAGS).find("-fsanitize") != std::string::npos) {
    return "built with a sanitizer";
  }
  return nullptr;
}

/// Measured parallel speed-up of a spin loop on nproc threads: nproc
/// times the one-thread time over the all-threads wall time.
double EffectiveConcurrency(unsigned threads) {
  std::atomic<uint64_t> sink{0};
  auto spin = [&sink] {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  int64_t start = NowNs();
  spin();
  double one = SecondsBetween(start, NowNs());
  start = NowNs();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  double all = SecondsBetween(start, NowNs());
  return static_cast<double>(threads) * one / all;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "refresh") return MakeRefresh();
  if (name == "query") return MakeQuery();
  return MakeDrift();
}

/// Removes the run's scratch files however the run ends.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {}
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

 private:
  std::string path_;
};

void ReportLayers(const Tracer& tracer, const Checks& checks,
                  const Counts& counts, const std::vector<double>& traced,
                  const std::vector<double>& untraced, Report& report) {
  std::map<std::string, double> m;
  for (const LayerMetric& metric : LayerMetrics()) m[metric.name] = 0.0;
  for (const auto& [name, value] : counts) m.at(name) = value;

  const double n = static_cast<double>(traced.size());
  const double lifecycle = tracer.busy_s(Op::kLifecycle) / n;
  auto busy = [&](std::initializer_list<Op> ops) {
    double sum = 0.0;
    for (Op op : ops) sum += tracer.busy_s(op);
    return sum / n;
  };
  auto self = [&](Layer layer) { return tracer.self_s(layer) / n; };
  auto share = [&](Layer layer) { return self(layer) / lifecycle; };

  m["epfis.trace.busy_s"] =
      busy({Op::kTraceOpen, Op::kTraceClose, Op::kTraceRead});
  m["epfis.trace.share"] = share(Layer::kTrace);
  m["buffer.kernel.busy_s"] = self(Layer::kKernel);
  m["buffer.kernel.share"] = share(Layer::kKernel);
  m["epfis.lru_fit.self_s"] = self(Layer::kLruFit);
  m["epfis.lru_fit.share"] = share(Layer::kLruFit);
  m["catalog.put_s"] = busy({Op::kCatalogPut});
  m["catalog.get_s"] = busy({Op::kCatalogGet});
  m["catalog.save_s"] = busy({Op::kCatalogSave});
  m["catalog.load_s"] = busy({Op::kCatalogLoad});
  m["catalog.publish_s"] = busy({Op::kCatalogPublish});
  m["catalog.busy_s"] = self(Layer::kCatalog);
  m["catalog.share"] = share(Layer::kCatalog);
  m["exec.optimizer.self_s"] = self(Layer::kOptimizer);
  m["exec.optimizer.share"] = share(Layer::kOptimizer);
  m["epfis.est_io.busy_s"] = busy({Op::kEstimate});
  m["epfis.est_io.share"] = share(Layer::kEstIo);
  m["exec.scan.busy_s"] = busy({Op::kIndexScan, Op::kTableScan});
  m["exec.scan.share"] = share(Layer::kScan);
  m["buffer.pool.create_s"] = busy({Op::kMakePool});
  m["epfis.online.busy_s"] = busy({Op::kIngest});
  m["epfis.online.share"] = share(Layer::kOnline);
  m["bench.self_s"] = self(Layer::kBench);
  m["bench.share"] = share(Layer::kBench);
  for (Layer layer : {Layer::kTrace, Layer::kKernel, Layer::kLruFit,
                      Layer::kCatalog, Layer::kOptimizer, Layer::kEstIo,
                      Layer::kScan, Layer::kPool, Layer::kIndex,
                      Layer::kOnline}) {
    m[std::string(LayerName(layer)) + ".failed"] =
        static_cast<double>(checks.failed(layer));
  }
  double traced_median = Median(traced);
  double untraced_median = Median(untraced);
  m["tracing.lifecycle_s"] = traced_median;
  m["tracing.untraced_lifecycle_s"] = untraced_median;
  m["tracing.overhead_pct"] = 100.0 * (traced_median / untraced_median - 1.0);
  m["tracing.coverage"] = 1.0 - share(Layer::kBench);
  m["tracing.spans"] = static_cast<double>(tracer.spans()) / n;
  m["tracing.iterations"] = n;

  for (const LayerMetric& metric : LayerMetrics()) {
    report.Metric(metric.name, m[metric.name], metric.unit);
  }
  double coverage = m["tracing.coverage"];
  std::cout << "layer self times cover " << FormatNumber(100.0 * coverage)
            << "% of the traced lifecycle"
            << (std::abs(coverage - 1.0) <= 0.05 ? "" : "  (OUTSIDE 5%)")
            << '\n';
}

int Run(const Args& args) {
  std::cout << "lifecycle_bench --workload " << args.workload << " --seed "
            << args.seed << " --seconds " << FormatNumber(args.seconds)
            << " --trace " << args.trace << " --work-dir " << args.work_dir
            << '\n';
  if (const char* refusal = BuildRefusal()) {
    std::cerr << "refusing to report timings: " << refusal << '\n';
    return 3;
  }
  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "provenance: source " << args.source_digest << ", git "
            << args.git_sha << ", compiler " << LCB_COMPILER << ", flags \""
            << LCB_CXX_FLAGS << "\", nproc " << nproc
            << ", effective concurrency "
            << FormatNumber(EffectiveConcurrency(nproc)) << ", seed "
            << args.seed << '\n';
  if (int failed = RunSelfTests(); failed != 0) {
    std::cerr << failed << " arithmetic self-tests failed\n";
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.work_dir << ": " << ec.message()
              << '\n';
    return 1;
  }
  WorkDir cleanup(args.work_dir);

  // The run is split into rounds. Each round sets the workload up afresh
  // and then runs its share of the timed iterations, so one run mixes
  // several independent set-ups (allocations, page placement) instead of
  // inheriting one layout's luck.
  Checks checks;
  Tracer off(false, 0);
  Tracer tracer(args.trace == 1, 1 << 18);
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::vector<uint64_t> digests;
  std::vector<double> lifecycle;
  std::vector<double> lifecycle_cpu;
  std::vector<double> traced;
  std::vector<double> stats_rate;
  std::vector<double> round_median;
  auto iterate = [&](Tracer& t, std::vector<double>& times) {
    int64_t start = NowNs();
    int64_t cpu_start = ThreadCpuNs();
    t.Begin(Op::kLifecycle, times.size());
    workload->Lifecycle(t, checks);
    t.End();
    times.push_back(SecondsBetween(start, NowNs()));
    if (&times == &lifecycle) {
      lifecycle_cpu.push_back(SecondsBetween(cpu_start, ThreadCpuNs()));
      stats_rate.push_back(workload->StatsMrefsPerS());
    }
    workload->CheckIteration(checks);
  };
  constexpr size_t kMinIterationsPerRound = 2;
  const double round_seconds = args.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    workload.reset();
    std::unique_ptr<Workload> fresh = Make(args.workload);
    int64_t start = ThreadCpuNs();
    epfis::Status status = fresh->Setup(args.seed, args.work_dir);
    setup_s.push_back(SecondsBetween(start, ThreadCpuNs()));
    if (!status.ok()) {
      std::cerr << "set-up failed: " << status.ToString() << '\n';
      return 1;
    }
    digests.push_back(fresh->InputDigest());
    workload = std::move(fresh);

    const size_t first = lifecycle.size();
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(round_seconds * 1e9);
    while (lifecycle.size() - first < kMinIterationsPerRound ||
           NowNs() < deadline) {
      iterate(off, lifecycle);
      if (args.trace == 1) {
        iterate(tracer, traced);
        workload->SeparatePasses(tracer, checks);
      }
    }
    round_median.push_back(Median(std::vector<double>(
        lifecycle.begin() + static_cast<std::ptrdiff_t>(first),
        lifecycle.end())));
  }
  checks.Expect(Layer::kBench,
                std::all_of(digests.begin(), digests.end(),
                            [&](uint64_t d) { return d == digests[0]; }),
                "set-ups from one seed give identical input digests");
  std::cout << "inputs: digest " << std::hex << digests[0] << std::dec
            << " (" << digests.size() << " set-ups)\n";
  workload->FinalChecks(checks);

  Report report;
  std::cout << args.workload << " metrics:\n";
  workload->ReportWorkload(report);
  std::string rounds;
  for (double m : round_median) rounds.append(" ").append(FormatNumber(m));
  report.Info("lifecycle_iterations", static_cast<double>(lifecycle.size()),
              "count",
              "wall-time quartiles " +
                  FormatNumber(Percentile(lifecycle, 0.25)) + " / " +
                  FormatNumber(Median(lifecycle)) + " / " +
                  FormatNumber(Percentile(lifecycle, 0.75)) + " s, min " +
                  FormatNumber(Percentile(lifecycle, 0.0)) +
                  "; round medians" + rounds);
  report.Info("failed_frac",
              static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted()),
              "ratio", std::to_string(checks.failed()) + " of " +
                           std::to_string(checks.attempted()));
  if (args.trace == 0) {
    report.Info("lifecycle_wall_s", Median(lifecycle), "s");
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("lifecycle_cpu_s", Median(lifecycle_cpu), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("stats_mrefs_per_s", Median(stats_rate), "Mrefs/s");
  } else {
    ReportLayers(tracer, checks, workload->LayerCounts(), traced, lifecycle,
                 report);
    if (!args.spans_dir.empty()) {
      std::filesystem::create_directories(args.spans_dir, ec);
      std::string path = args.spans_dir + "/spans-" + args.workload +
                         "-seed" + std::to_string(args.seed) + ".tsv";
      epfis::Status written = tracer.WriteSpans(path);
      checks.Call(Layer::kBench, written);
      std::cout << "spans written to " << path << '\n';
    }
  }
  bool correct = checks.failed() == 0;
  std::cout << report.Json(correct, checks.attempted(), checks.failed())
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lcb

int main(int argc, char** argv) {
  lcb::Args args;
  if (!lcb::ParseArgs(argc, argv, &args)) return 2;
  return lcb::Run(args);
}
