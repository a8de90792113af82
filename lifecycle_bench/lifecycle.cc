// Lifecycle steps shared by the workloads (see workload.h).

#include <algorithm>
#include <cmath>
#include <utility>

#include "buffer/parallel_stack_distance.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "epfis/trace_source.h"
#include "obs/metrics.h"
#include "workload.h"
#include "workload/data_gen.h"
#include "workload/scan_gen.h"

namespace lcb {

using epfis::IndexStats;
using epfis::PageId;
using epfis::Result;
using epfis::Status;

uint64_t DistinctPages(const std::vector<PageId>& trace,
                       uint64_t table_pages) {
  std::vector<bool> seen(table_pages, false);
  uint64_t distinct = 0;
  for (PageId page : trace) {
    if (page < table_pages && !seen[page]) {
      seen[page] = true;
      ++distinct;
    }
  }
  return distinct;
}

uint32_t CollectIndex(const TraceIndex& index, uint64_t group,
                      epfis::StatsCatalog& catalog, Tracer& tracer,
                      Checks& checks, double* seconds) {
  int64_t start = ThreadCpuNs();
  Result<std::unique_ptr<epfis::TraceSource>> source = [&] {
    ScopedSpan span(tracer, Op::kTraceOpen, group);
    return epfis::OpenTraceSource(index.path);
  }();
  checks.Call(Layer::kTrace, source.status());
  if (!source.ok()) return kNoSpan;

  epfis::LruFitOptions options;
  options.sample_rate = index.sample_rate;
  uint32_t fit_span = kNoSpan;
  Result<IndexStats> stats = [&] {
    ScopedSpan span(tracer, Op::kLruFit, group);
    fit_span = span.id();
    return epfis::RunLruFit(**source, index.table_pages, index.distinct_keys,
                            index.name, options);
  }();
  checks.Call(Layer::kLruFit, stats.status());
  {
    ScopedSpan span(tracer, Op::kTraceClose, group);
    source->reset();
  }
  if (stats.ok()) {
    ScopedSpan span(tracer, Op::kCatalogPut, group);
    catalog.Put(std::move(stats).value());
  }
  *seconds += SecondsBetween(start, ThreadCpuNs());
  return fit_span;
}

void SeparateCollectPasses(const TraceIndex& index, uint64_t group,
                           uint32_t fit_span, Tracer& tracer,
                           Checks& checks) {
  // Drain pass: the reads RunLruFit's kernel pulls from the source.
  double drain_s = 0.0;
  {
    auto source = epfis::OpenTraceSource(index.path);
    checks.Call(Layer::kTrace, source.status());
    if (!source.ok()) return;
    std::vector<PageId> chunk(1 << 16);
    int64_t start = NowNs();
    for (;;) {
      Result<size_t> got = (*source)->Next(chunk.data(), chunk.size());
      if (!got.ok()) {
        checks.Call(Layer::kTrace, got.status());
        return;
      }
      if (*got == 0) break;
    }
    drain_s = SecondsBetween(start, NowNs());
  }
  // Kernel pass: the stack simulation RunLruFit runs, reads included.
  double kernel_s = 0.0;
  {
    auto source = epfis::OpenTraceSource(index.path);
    checks.Call(Layer::kTrace, source.status());
    if (!source.ok()) return;
    epfis::StackDistanceOptions options;
    options.sampling.rate = index.sample_rate;
    int64_t start = NowNs();
    auto histogram =
        epfis::ComputeSampledStackDistances(**source, nullptr, options);
    kernel_s = SecondsBetween(start, NowNs());
    checks.Call(Layer::kKernel, histogram.status());
  }
  uint32_t kernel_span =
      tracer.AddShadow(Op::kKernelPass, Layer::kLruFit, kernel_s, group,
                       fit_span);
  tracer.AddShadow(Op::kTraceRead, Layer::kKernel, drain_s, group,
                   kernel_span);
}

Status MakeTable(const std::string& name, uint64_t records, uint64_t distinct,
                 double theta, double window, uint64_t seed,
                 epfis::Catalog& catalog, Table* out) {
  epfis::SyntheticSpec spec;
  spec.name = name;
  spec.num_records = records;
  spec.num_distinct = distinct;
  spec.records_per_page = 40;
  spec.theta = theta;
  spec.window_fraction = window;
  spec.seed = seed;
  EPFIS_ASSIGN_OR_RETURN(out->dataset, epfis::GenerateSynthetic(spec));
  out->name = name;
  out->index_name = name + ".key";
  EPFIS_RETURN_IF_ERROR(catalog.RegisterTable(name, out->dataset->table()));
  return catalog.RegisterIndex(out->index_name, name, 0,
                               out->dataset->index());
}

std::vector<PlannedQuery> GenerateQueries(const std::vector<Table>& tables,
                                          size_t count, uint64_t seed,
                                          Digest& digest) {
  static constexpr double kSargable[] = {0.1, 0.25, 0.5};
  epfis::Rng rng(seed);
  std::vector<epfis::ScanGenerator> scans;
  for (size_t t = 0; t < tables.size(); ++t) {
    scans.emplace_back(tables[t].dataset.get(), MixSeed(seed, 1000 + t));
  }
  std::vector<PlannedQuery> queries(count);
  for (PlannedQuery& q : queries) {
    q.table = static_cast<uint32_t>(rng.NextBounded(tables.size()));
    const Table& table = tables[q.table];
    epfis::ScanRange range = scans[q.table].Next(epfis::ScanMix::kMixed);
    q.buffer_frac = 0.05 * static_cast<double>(1 + rng.NextBounded(18));
    double sargable =
        rng.NextBernoulli(0.3) ? kSargable[rng.NextBounded(3)] : 1.0;
    double pages = static_cast<double>(table.dataset->num_pages());
    q.buffer_pages =
        std::max<uint64_t>(1, static_cast<uint64_t>(
                                  std::llround(q.buffer_frac * pages)));
    q.index_name = table.index_name;
    q.query.table = table.name;
    q.query.column = 0;
    q.query.range = epfis::KeyRange::Closed(range.lo_key, range.hi_key);
    q.query.sigma = range.sigma;
    q.query.sargable_selectivity = sargable;
    digest.Add(q.table);
    digest.Add(static_cast<uint64_t>(range.lo_key));
    digest.Add(static_cast<uint64_t>(range.hi_key));
    digest.Add(q.buffer_pages);
    digest.AddDouble(sargable);
  }
  return queries;
}

void PlanQueries(const epfis::AccessPathOptimizer& optimizer,
                 const std::vector<PlannedQuery>& queries, Tracer& tracer,
                 Checks& checks, float* latency_ns, uint8_t* chose_index,
                 double* estimate) {
  for (size_t first = 0; first < queries.size(); first += kPlanBlock) {
    size_t last = std::min(queries.size(), first + kPlanBlock);
    int64_t start = NowNs();
    int64_t first_end = start;
    for (size_t i = first; i < last; ++i) {
      const PlannedQuery& q = queries[i];
      Result<epfis::AccessPlan> plan =
          optimizer.Choose(q.query, q.buffer_pages);
      if (i == first) first_end = NowNs();
      checks.Call(Layer::kOptimizer, plan.status());
      if (!plan.ok()) continue;
      if (chose_index != nullptr) {
        chose_index[i] = plan->type == epfis::AccessPlan::Type::kIndexScan;
      }
      if (estimate != nullptr) estimate[i] = plan->estimated_fetches;
    }
    tracer.Leaf(Op::kChoose, first, start, NowNs());
    latency_ns[first / kPlanBlock] = static_cast<float>(first_end - start);
  }
}

void SeparatePlanPasses(const epfis::Catalog& catalog,
                        const std::vector<PlannedQuery>& queries,
                        size_t repeats, uint32_t parent, Tracer& tracer,
                        Checks& checks) {
  // Pass 1: the catalog lookups Choose makes, one per query.
  std::map<std::string, IndexStats> stats;
  int64_t start = NowNs();
  for (size_t r = 0; r < repeats; ++r) {
    for (const PlannedQuery& q : queries) {
      Result<IndexStats> got = catalog.stats().Get(q.index_name);
      if (!got.ok()) {
        checks.Call(Layer::kCatalog, got.status());
        return;
      }
    }
  }
  double get_s = SecondsBetween(start, NowNs());
  for (const PlannedQuery& q : queries) {
    if (stats.count(q.index_name) == 0) {
      stats.emplace(q.index_name, *catalog.stats().Get(q.index_name));
    }
  }
  // Pass 2: the Est-IO calls Choose makes on the looked-up entries.
  std::vector<const IndexStats*> entry(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    entry[i] = &stats.at(queries[i].index_name);
  }
  uint64_t bad = 0;
  start = NowNs();
  for (size_t r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const PlannedQuery& q = queries[i];
      epfis::ScanSpec scan;
      scan.sigma = q.query.sigma;
      scan.sargable_selectivity = q.query.sargable_selectivity;
      scan.buffer_pages = q.buffer_pages;
      if (!epfis::EstIo::Estimate(*entry[i], scan).ok()) ++bad;
    }
  }
  double estimate_s = SecondsBetween(start, NowNs());
  checks.Expect(Layer::kEstIo, bad == 0, "separate Est-IO pass failed");
  tracer.AddShadow(Op::kCatalogGet, Layer::kOptimizer, get_s, 0, parent);
  tracer.AddShadow(Op::kEstimate, Layer::kOptimizer, estimate_s, 0, parent);
}

uint64_t RegistryCounter(const std::string& name) {
  epfis::MetricsSnapshot snapshot =
      epfis::MetricsRegistry::Global().Snapshot();
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

uint64_t RegistryHistogramSum(const std::string& name) {
  epfis::MetricsSnapshot snapshot =
      epfis::MetricsRegistry::Global().Snapshot();
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0 : it->second.sum;
}

void ReportLatency(Report& report, const std::vector<float>& latency_ns) {
  std::vector<double> us(latency_ns.begin(), latency_ns.end());
  for (double& v : us) v *= 1e-3;
  std::string note_p50 = "n=" + std::to_string(us.size()) + ", one call in " +
                         std::to_string(kPlanBlock) + " timed";
  std::string note_p99 = "n=" + std::to_string(us.size()) + ", " +
                         std::to_string(SamplesBeyond(us.size(), 0.99)) +
                         " beyond";
  report.Info("plan_us_p50", Median(us), "us", note_p50);
  report.Info("plan_us_p99", Percentile(us, 0.99), "us", note_p99);
}

}  // namespace lcb
