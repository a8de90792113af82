#ifndef EPFIS_LIFECYCLE_BENCH_HARNESS_H_
#define EPFIS_LIFECYCLE_BENCH_HARNESS_H_

// Shared machinery of the lifecycle benchmark: the clock, the arithmetic
// behind every reported metric, span tracing with per-layer self time,
// output-check accounting, and the metric report.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside src/ is instrumented for it. A library
// call that nests another layer (RunLruFit reads the trace and runs the
// kernel; Choose calls StatsCatalog::Get and EstIo::Estimate) is split by
// re-timing the inner call in a separate pass over the same inputs: the
// inner layer is charged that time and the outer layer keeps the
// difference as its self time (Tracer::AddShadow).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace lcb {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time the calling thread has used. Every workload runs on one
/// thread, so an interval of it is the interval's wall time minus the time
/// the thread did not run: time the hypervisor stole from this VM, or time
/// other processes took. Costs a system call; never used per Choose call.
int64_t ThreadCpuNs();

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Independent stream seeds derived from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Order-sensitive 64-bit digest of generated inputs.
class Digest {
 public:
  void Add(uint64_t value);
  void AddDouble(double value);
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    for (const T& v : values) Add(static_cast<uint64_t>(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- Metric arithmetic (checked by RunSelfTests) ----

/// Middle value; the mean of the two middle values for an even count.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the ceil(p * n)-th smallest value, p in (0, 1].
double Percentile(std::vector<double> values, double p);

/// Samples strictly above the nearest-rank p-percentile's rank.
size_t SamplesBeyond(size_t n, double p);

/// The paper's §5 error: 100 * |sum(est) - sum(act)| / sum(act).
double AggregateErrPct(const std::vector<double>& est,
                       const std::vector<double>& act);

/// The largest AggregateErrPct over buffer-fraction deciles
/// (decile = floor(10 * B/T)), skipping empty deciles.
double MaxDecileErrPct(const std::vector<double>& buffer_frac,
                       const std::vector<double>& est,
                       const std::vector<double>& act);

/// sum(actual fetches of the chosen plan) / sum(min(index-scan actual, T)).
double PlanRegret(const std::vector<double>& chosen_actual,
                  const std::vector<double>& index_actual,
                  const std::vector<double>& table_pages);

/// Refresh intervals from the shift to the first publish after it:
/// `publishes_after[i]` is the engine's publish count after interval i
/// (0-based), the shift falls before interval `shift`, and `settled` is the
/// count at the shift. Returns -1 when no publish follows the shift.
int DetectIntervals(const std::vector<uint64_t>& publishes_after,
                    size_t shift, uint64_t settled);

/// Runs the arithmetic above on hand-computed inputs; prints each failure
/// and returns how many checks failed.
int RunSelfTests();

// ---- Layers and traced operations ----

/// Layers, named after the src/ modules they wrap.
enum class Layer : uint8_t {
  kBench,      // The benchmark's own loop between library calls.
  kTrace,      // epfis.trace: trace_io, trace_source
  kKernel,     // buffer.kernel: stack_distance_kernel, sampling
  kLruFit,     // epfis.lru_fit: lru_fit, util/piecewise
  kCatalog,    // catalog
  kOptimizer,  // exec.optimizer
  kEstIo,      // epfis.est_io
  kScan,       // exec.scan: index_scan, table_scan
  kPool,       // buffer.pool: buffer_pool, lru_replacer (counts only)
  kIndex,      // index: btree (counts only)
  kOnline,     // epfis.online: online_lru_fit, decayed_window
  kCount,
};
const char* LayerName(Layer layer);

/// Operations the benchmark times, each owned by one layer.
enum class Op : uint8_t {
  kLifecycle,       // One timed lifecycle iteration (root span).
  kTraceOpen,       // OpenTraceSource
  kTraceClose,      // Releasing a TraceSource (unmap / close)
  kTraceRead,       // Draining a TraceSource (separate pass)
  kKernelPass,      // ComputeSampledStackDistances (separate pass)
  kLruFit,          // RunLruFit
  kCatalogPut,      // StatsCatalog::Put
  kCatalogGet,      // StatsCatalog::Get (separate pass)
  kCatalogSave,     // StatsCatalog::SaveToFileV3
  kCatalogLoad,     // OpenCatalogSnapshotV3 / StatsCatalog::LoadFromFile
  kCatalogPublish,  // StatsCatalog::Publish
  kChoose,          // AccessPathOptimizer::Choose
  kEstimate,        // EstIo::Estimate (separate pass)
  kMakePool,        // Dataset::MakeDataPool
  kIndexScan,       // RunIndexScan
  kTableScan,       // RunTableScan
  kIngest,          // OnlineLruFit::Ingest
  kCount,
};
const char* OpName(Op op);
Layer LayerOf(Op op);

inline constexpr uint32_t kNoSpan = 0xffffffffu;

/// In-memory span recorder with on-the-fly self-time accounting. Spans
/// nest strictly (LIFO); each holds its operation, start, end, parent and
/// a group id shared by the spans of one index or one query. Totals cover
/// every span; the span log keeps the first `retain_cap` spans for
/// WriteSpans. A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  Tracer(bool enabled, size_t retain_cap);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its log id
  /// (kNoSpan when disabled or past the retention cap).
  uint32_t Begin(Op op, uint64_t group) { return BeginAt(op, group, NowNs()); }
  void End() { EndAt(NowNs()); }

  /// Begin/End at explicit times (the self-tests use hand-set times).
  uint32_t BeginAt(Op op, uint64_t group, int64_t now_ns);
  void EndAt(int64_t now_ns);

  /// Records a finished span with no children, keeping the bookkeeping
  /// outside the measured interval.
  void Leaf(Op op, uint64_t group, int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    BeginAt(op, group, start_ns);
    EndAt(end_ns);
  }

  /// Charges `seconds`, measured in a separate pass of the inner call
  /// `op`, to op's layer and takes it out of the self time of `outer`.
  /// `parent` is the log id of the outer span (or kNoSpan). Returns the
  /// shadow span's log id.
  uint32_t AddShadow(Op op, Layer outer, double seconds, uint64_t group,
                     uint32_t parent);

  double busy_s(Op op) const { return busy_s_[static_cast<size_t>(op)]; }
  double self_s(Layer layer) const {
    return self_s_[static_cast<size_t>(layer)];
  }
  uint64_t spans() const { return spans_; }

  /// Writes the retained spans as tab-separated rows, times relative to
  /// the first span.
  epfis::Status WriteSpans(const std::string& path) const;

 private:
  struct Span {
    Op op;
    bool shadow;
    uint32_t parent;
    uint64_t group;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Open {
    Op op;
    uint32_t id;
    int64_t start_ns;
    double child_s;
  };

  bool enabled_;
  size_t retain_cap_;
  uint64_t spans_ = 0;
  std::vector<Span> log_;
  std::vector<Open> stack_;
  double busy_s_[static_cast<size_t>(Op::kCount)] = {};
  double self_s_[static_cast<size_t>(Layer::kCount)] = {};
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Op op, uint64_t group)
      : tracer_(tracer), id_(tracer.Begin(op, group)) {}
  ~ScopedSpan() { tracer_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

// ---- Output checks ----

/// Counts operations attempted and failed: library calls that returned an
/// error and output checks that did not hold. The first few failures are
/// printed to stderr.
class Checks {
 public:
  /// A library call on `layer`; `status` is its outcome.
  void Call(Layer layer, const epfis::Status& status);
  /// An output check on `layer`.
  bool Expect(Layer layer, bool ok, std::string_view what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t failed(Layer layer) const {
    return layer_failed_[static_cast<size_t>(layer)];
  }

 private:
  void Fail(Layer layer, std::string_view what);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t layer_failed_[static_cast<size_t>(Layer::kCount)] = {};
  int printed_ = 0;
};

// ---- Report ----

/// Collects metrics by name with their units, prints each as it is set,
/// and renders the closing JSON object.
class Report {
 public:
  /// A human-readable metric line (not part of the JSON).
  void Info(std::string_view name, double value, std::string_view unit,
            std::string_view note = "");
  /// A metric that goes into the JSON object.
  void Metric(std::string_view name, double value, std::string_view unit);

  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Names and units of every per-layer metric, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// Formats a number with all its significant digits.
std::string FormatNumber(double value);

}  // namespace lcb

#endif  // EPFIS_LIFECYCLE_BENCH_HARNESS_H_
