#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace lcb {

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over the (seed, stream) pair.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t ThreadCpuNs() {
  struct timespec ts {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

void Digest::Add(uint64_t value) {
  h_ = (h_ ^ value) * 0x100000001b3ULL;
  h_ ^= h_ >> 29;
}

void Digest::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double AggregateErrPct(const std::vector<double>& est,
                       const std::vector<double>& act) {
  double sum_e = 0.0;
  double sum_a = 0.0;
  for (double e : est) sum_e += e;
  for (double a : act) sum_a += a;
  return sum_a > 0.0 ? 100.0 * std::abs(sum_e - sum_a) / sum_a : 0.0;
}

double MaxDecileErrPct(const std::vector<double>& buffer_frac,
                       const std::vector<double>& est,
                       const std::vector<double>& act) {
  std::vector<double> decile_e[10];
  std::vector<double> decile_a[10];
  for (size_t i = 0; i < buffer_frac.size(); ++i) {
    int d = std::clamp(static_cast<int>(std::floor(10.0 * buffer_frac[i])), 0,
                       9);
    decile_e[d].push_back(est[i]);
    decile_a[d].push_back(act[i]);
  }
  double worst = 0.0;
  for (int d = 0; d < 10; ++d) {
    if (decile_a[d].empty()) continue;
    worst = std::max(worst, AggregateErrPct(decile_e[d], decile_a[d]));
  }
  return worst;
}

double PlanRegret(const std::vector<double>& chosen_actual,
                  const std::vector<double>& index_actual,
                  const std::vector<double>& table_pages) {
  double chosen = 0.0;
  double best = 0.0;
  for (size_t i = 0; i < chosen_actual.size(); ++i) {
    chosen += chosen_actual[i];
    best += std::min(index_actual[i], table_pages[i]);
  }
  return best > 0.0 ? chosen / best : 0.0;
}

int DetectIntervals(const std::vector<uint64_t>& publishes_after,
                    size_t shift, uint64_t settled) {
  for (size_t i = shift; i < publishes_after.size(); ++i) {
    if (publishes_after[i] > settled) return static_cast<int>(i - shift) + 1;
  }
  return -1;
}

// ---- Layers ----

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kTrace: return "epfis.trace";
    case Layer::kKernel: return "buffer.kernel";
    case Layer::kLruFit: return "epfis.lru_fit";
    case Layer::kCatalog: return "catalog";
    case Layer::kOptimizer: return "exec.optimizer";
    case Layer::kEstIo: return "epfis.est_io";
    case Layer::kScan: return "exec.scan";
    case Layer::kPool: return "buffer.pool";
    case Layer::kIndex: return "index";
    case Layer::kOnline: return "epfis.online";
    case Layer::kCount: break;
  }
  return "?";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kLifecycle: return "lifecycle";
    case Op::kTraceOpen: return "OpenTraceSource";
    case Op::kTraceClose: return "~TraceSource";
    case Op::kTraceRead: return "TraceSource::Next";
    case Op::kKernelPass: return "ComputeSampledStackDistances";
    case Op::kLruFit: return "RunLruFit";
    case Op::kCatalogPut: return "StatsCatalog::Put";
    case Op::kCatalogGet: return "StatsCatalog::Get";
    case Op::kCatalogSave: return "StatsCatalog::SaveToFileV3";
    case Op::kCatalogLoad: return "catalog v3 load";
    case Op::kCatalogPublish: return "StatsCatalog::Publish";
    case Op::kChoose: return "AccessPathOptimizer::Choose";
    case Op::kEstimate: return "EstIo::Estimate";
    case Op::kMakePool: return "Dataset::MakeDataPool";
    case Op::kIndexScan: return "RunIndexScan";
    case Op::kTableScan: return "RunTableScan";
    case Op::kIngest: return "OnlineLruFit::Ingest";
    case Op::kCount: break;
  }
  return "?";
}

Layer LayerOf(Op op) {
  switch (op) {
    case Op::kLifecycle: return Layer::kBench;
    case Op::kTraceOpen:
    case Op::kTraceClose:
    case Op::kTraceRead: return Layer::kTrace;
    case Op::kKernelPass: return Layer::kKernel;
    case Op::kLruFit: return Layer::kLruFit;
    case Op::kCatalogPut:
    case Op::kCatalogGet:
    case Op::kCatalogSave:
    case Op::kCatalogLoad:
    case Op::kCatalogPublish: return Layer::kCatalog;
    case Op::kChoose: return Layer::kOptimizer;
    case Op::kEstimate: return Layer::kEstIo;
    case Op::kMakePool: return Layer::kPool;
    case Op::kIndexScan:
    case Op::kTableScan: return Layer::kScan;
    case Op::kIngest: return Layer::kOnline;
    case Op::kCount: break;
  }
  return Layer::kBench;
}

// ---- Tracer ----

Tracer::Tracer(bool enabled, size_t retain_cap)
    : enabled_(enabled), retain_cap_(retain_cap) {}

uint32_t Tracer::BeginAt(Op op, uint64_t group, int64_t now) {
  if (!enabled_) return kNoSpan;
  uint32_t id = kNoSpan;
  if (log_.size() < retain_cap_) {
    id = static_cast<uint32_t>(log_.size());
    uint32_t parent = stack_.empty() ? kNoSpan : stack_.back().id;
    log_.push_back(Span{op, false, parent, group, now, now});
  }
  ++spans_;
  stack_.push_back(Open{op, id, now, 0.0});
  return id;
}

void Tracer::EndAt(int64_t now) {
  if (!enabled_) return;
  Open open = stack_.back();
  stack_.pop_back();
  if (open.id != kNoSpan) log_[open.id].end_ns = now;
  double dur = SecondsBetween(open.start_ns, now);
  size_t op = static_cast<size_t>(open.op);
  busy_s_[op] += dur;
  self_s_[static_cast<size_t>(LayerOf(open.op))] += dur - open.child_s;
  if (!stack_.empty()) stack_.back().child_s += dur;
}

uint32_t Tracer::AddShadow(Op op, Layer outer, double seconds, uint64_t group,
                           uint32_t parent) {
  if (!enabled_) return kNoSpan;
  size_t index = static_cast<size_t>(op);
  busy_s_[index] += seconds;
  self_s_[static_cast<size_t>(LayerOf(op))] += seconds;
  self_s_[static_cast<size_t>(outer)] -= seconds;
  ++spans_;
  if (log_.size() >= retain_cap_) return kNoSpan;
  // A shadow span ends when its separate pass was recorded.
  int64_t end = NowNs();
  int64_t start = end - static_cast<int64_t>(seconds * 1e9);
  log_.push_back(Span{op, true, parent, group, start, end});
  return static_cast<uint32_t>(log_.size() - 1);
}

epfis::Status Tracer::WriteSpans(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return epfis::Status::IoError("cannot write " + path);
  int64_t origin = log_.empty() ? 0 : log_.front().start_ns;
  out << "id\tparent\tgroup\tlayer\top\tshadow\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < log_.size(); ++i) {
    const Span& s = log_[i];
    out << i << '\t'
        << (s.parent == kNoSpan ? std::string("-") : std::to_string(s.parent))
        << '\t' << s.group << '\t' << LayerName(LayerOf(s.op)) << '\t'
        << OpName(s.op) << '\t' << (s.shadow ? 1 : 0) << '\t'
        << s.start_ns - origin << '\t' << s.end_ns - origin << '\n';
  }
  out.close();
  return out ? epfis::Status::Ok()
             : epfis::Status::IoError("short write to " + path);
}

// ---- Checks ----

void Checks::Call(Layer layer, const epfis::Status& status) {
  ++attempted_;
  if (!status.ok()) Fail(layer, status.ToString());
}

bool Checks::Expect(Layer layer, bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) Fail(layer, what);
  return ok;
}

void Checks::Fail(Layer layer, std::string_view what) {
  ++failed_;
  ++layer_failed_[static_cast<size_t>(layer)];
  if (printed_ < 20) {
    ++printed_;
    std::cerr << "FAILED [" << LayerName(layer) << "] " << what << '\n';
  }
}

// ---- Report ----

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "-1";
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Info(std::string_view name, double value, std::string_view unit,
                  std::string_view note) {
  std::cout << "  " << name << " = " << FormatNumber(value) << ' ' << unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

void Report::Metric(std::string_view name, double value,
                    std::string_view unit) {
  Info(name, value, unit);
  metrics_.push_back({std::string(name), {value, std::string(unit)}});
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics_[i].first << "\": {\"value\": "
       << FormatNumber(metrics_[i].second.first) << ", \"unit\": \""
       << metrics_[i].second.second << "\"}";
  }
  os << "}}";
  return os.str();
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"epfis.trace.refs", "count"},
      {"epfis.trace.busy_s", "s"},
      {"epfis.trace.share", "ratio"},
      {"epfis.trace.failed", "count"},
      {"buffer.kernel.refs", "count"},
      {"buffer.kernel.sampled_refs", "count"},
      {"buffer.kernel.sample_ratio", "ratio"},
      {"buffer.kernel.busy_s", "s"},
      {"buffer.kernel.share", "ratio"},
      {"buffer.kernel.failed", "count"},
      {"epfis.lru_fit.calls", "count"},
      {"epfis.lru_fit.self_s", "s"},
      {"epfis.lru_fit.share", "ratio"},
      {"epfis.lru_fit.failed", "count"},
      {"epfis.lru_fit.registry_simulate_s", "s"},
      {"epfis.lru_fit.registry_fit_s", "s"},
      {"catalog.puts", "count"},
      {"catalog.put_s", "s"},
      {"catalog.get_s", "s"},
      {"catalog.save_s", "s"},
      {"catalog.bytes", "bytes"},
      {"catalog.load_s", "s"},
      {"catalog.publishes", "count"},
      {"catalog.publish_s", "s"},
      {"catalog.busy_s", "s"},
      {"catalog.share", "ratio"},
      {"catalog.failed", "count"},
      {"exec.optimizer.queries", "count"},
      {"exec.optimizer.plans", "count"},
      {"exec.optimizer.self_s", "s"},
      {"exec.optimizer.share", "ratio"},
      {"exec.optimizer.failed", "count"},
      {"epfis.est_io.probes", "count"},
      {"epfis.est_io.busy_s", "s"},
      {"epfis.est_io.fallbacks", "count"},
      {"epfis.est_io.share", "ratio"},
      {"epfis.est_io.failed", "count"},
      {"exec.scan.index_scans", "count"},
      {"exec.scan.table_scans", "count"},
      {"exec.scan.records", "count"},
      {"exec.scan.busy_s", "s"},
      {"exec.scan.share", "ratio"},
      {"exec.scan.failed", "count"},
      {"buffer.pool.requests", "count"},
      {"buffer.pool.fetches", "count"},
      {"buffer.pool.evictions", "count"},
      {"buffer.pool.hit_ratio", "ratio"},
      {"buffer.pool.create_s", "s"},
      {"buffer.pool.failed", "count"},
      {"index.entries_examined", "count"},
      {"index.failed", "count"},
      {"epfis.online.refs", "count"},
      {"epfis.online.busy_s", "s"},
      {"epfis.online.refreshes", "count"},
      {"epfis.online.publishes", "count"},
      {"epfis.online.publish_ratio", "ratio"},
      {"epfis.online.share", "ratio"},
      {"epfis.online.failed", "count"},
      {"bench.self_s", "s"},
      {"bench.share", "ratio"},
      {"tracing.lifecycle_s", "s"},
      {"tracing.untraced_lifecycle_s", "s"},
      {"tracing.overhead_pct", "%"},
      {"tracing.coverage", "ratio"},
      {"tracing.spans", "count"},
      {"tracing.iterations", "count"},
  };
  return kMetrics;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---- Self-tests ----

namespace {

int Near(const char* what, double got, double want) {
  if (std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want))) return 0;
  std::cerr << "SELFTEST " << what << ": got " << FormatNumber(got)
            << ", want " << FormatNumber(want) << '\n';
  return 1;
}

}  // namespace

int RunSelfTests() {
  int failed = 0;
  failed += Near("median odd", Median({3, 1, 2}), 2);
  failed += Near("median even", Median({4, 1, 3, 2}), 2.5);
  std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  failed += Near("p50 of 10", Percentile(ten, 0.50), 5);
  failed += Near("p99 of 10", Percentile(ten, 0.99), 10);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  failed += Near("p99 of 100", Percentile(hundred, 0.99), 99);
  failed += Near("beyond p99 of 1000",
                 static_cast<double>(SamplesBeyond(1000, 0.99)), 10);
  failed += Near("beyond p99 of 100",
                 static_cast<double>(SamplesBeyond(100, 0.99)), 1);
  failed += Near("aggregate error", AggregateErrPct({10, 20}, {12, 20}), 6.25);
  failed += Near("max decile error",
                 MaxDecileErrPct({0.05, 0.07, 0.55}, {10, 20, 30},
                                 {12, 20, 40}),
                 25);
  failed += Near("regret", PlanRegret({100, 50}, {80, 200}, {100, 50}),
                 150.0 / 130.0);
  failed += Near("detect after 2",
                 DetectIntervals({1, 1, 1, 1, 2, 2}, 3, 1), 2);
  failed += Near("detect at 1", DetectIntervals({1, 2, 2}, 1, 1), 1);
  failed += Near("never detected", DetectIntervals({1, 1, 1}, 1, 1), -1);

  // Span self time: a 100 s lifecycle holding a 60 s RunLruFit and a
  // 10 s Put; separate passes put 40 s of the fit in the kernel and 15 s
  // of that in trace reads. Expected self times: bench 30, lru_fit 20,
  // kernel 25, trace 15, catalog 10 — summing to the lifecycle.
  constexpr int64_t kSec = 1'000'000'000;
  Tracer tracer(true, 16);
  tracer.BeginAt(Op::kLifecycle, 0, 0);
  uint32_t fit = tracer.BeginAt(Op::kLruFit, 1, 10 * kSec);
  tracer.EndAt(70 * kSec);
  tracer.BeginAt(Op::kCatalogPut, 1, 70 * kSec);
  tracer.EndAt(80 * kSec);
  tracer.EndAt(100 * kSec);
  uint32_t kernel =
      tracer.AddShadow(Op::kKernelPass, Layer::kLruFit, 40, 1, fit);
  tracer.AddShadow(Op::kTraceRead, Layer::kKernel, 15, 1, kernel);
  failed += Near("self bench", tracer.self_s(Layer::kBench), 30);
  failed += Near("self lru_fit", tracer.self_s(Layer::kLruFit), 20);
  failed += Near("self kernel", tracer.self_s(Layer::kKernel), 25);
  failed += Near("self trace", tracer.self_s(Layer::kTrace), 15);
  failed += Near("self catalog", tracer.self_s(Layer::kCatalog), 10);
  double total = 0.0;
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    total += tracer.self_s(static_cast<Layer>(l));
  }
  failed += Near("self times sum to the root", total, 100);
  failed += Near("spans", static_cast<double>(tracer.spans()), 5);
  return failed;
}

}  // namespace lcb
