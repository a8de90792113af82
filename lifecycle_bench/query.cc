// `query`: query compilation plus execution.
//
// Set-up materializes four §5.2 tables (N = 10^5, theta = 0.86,
// K in {.05, .2, .5, 1}), writes their full-scan traces, generates the
// query stream, picks a seeded sample to execute, and computes the
// sample's oracle truths (records by CollectScanTrace, fetches by
// LruSimulator). The timed section runs the whole lifecycle at small
// scale — collect statistics, save v3, reload into the optimizer's
// Catalog, publish — then plans every query with Choose and executes the
// sample on fresh MakeDataPool(B) pools. Both candidate plans of a sampled
// query run: the index scan is the actual its estimate is judged by, and
// the pair gives the regret of the optimizer's choice.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "buffer/lru_simulator.h"
#include "epfis/est_io.h"
#include "epfis/trace_io.h"
#include "exec/index_scan.h"
#include "exec/table_scan.h"
#include "util/random.h"
#include "workload.h"

namespace lcb {
namespace {

using epfis::IndexStats;
using epfis::Result;
using epfis::Status;

constexpr uint64_t kRecords = 100'000;
constexpr uint64_t kDistinct = 1'000;
constexpr double kWindows[] = {0.05, 0.2, 0.5, 1.0};
// The stream of distinct queries is planned kPlanPasses times per
// lifecycle: 400,000 Choose calls over a footprint that stays in L2, so
// planning time does not swing with what other tenants do to the shared
// cache.
constexpr size_t kQueries = 5'000;
constexpr size_t kPlanPasses = 80;
// The executed sample is stratified by scan size so every seed executes
// about the same work: kPerBucket queries whose range holds a record
// fraction inside each bucket.
constexpr double kSizeBuckets[] = {0.005, 0.01, 0.02, 0.05, 0.1,
                                   0.2,   0.4,  0.6,  0.8};
constexpr size_t kPerBucket = 1;

/// One executed query: its oracle truths and what execution measured.
struct Executed {
  size_t query = 0;
  uint64_t filter_seed = 0;
  uint64_t oracle_entries = 0;
  uint64_t oracle_records = 0;
  uint64_t oracle_fetches = 0;

  epfis::IndexScanResult index;
  epfis::BufferPoolStats index_pool;
  epfis::TableScanResult table;
  epfis::BufferPoolStats table_pool;
};

class QueryWorkload final : public Workload {
 public:
  QueryWorkload() : optimizer_(&catalog_) {}

  Status Setup(uint64_t seed, const std::string& dir) override {
    Digest digest;
    for (size_t i = 0; i < std::size(kWindows); ++i) {
      Table table;
      EPFIS_RETURN_IF_ERROR(MakeTable(std::string("q") + std::to_string(i),
                                      kRecords, kDistinct, 0.86, kWindows[i],
                                      MixSeed(seed, 10 + i), catalog_,
                                      &table));
      EPFIS_ASSIGN_OR_RETURN(std::vector<epfis::PageId> trace,
                             table.dataset->FullIndexPageTrace());
      TraceIndex index;
      index.name = table.index_name;
      index.path = dir + "/" + table.name + ".trace";
      index.table_pages = table.dataset->num_pages();
      index.distinct_keys = table.dataset->num_distinct();
      index.records = trace.size();
      index.pages_accessed = DistinctPages(trace, index.table_pages);
      digest.AddAll(trace);
      EPFIS_RETURN_IF_ERROR(epfis::SavePageTrace(trace, index.path));
      collect_.push_back(index);
      tables_.push_back(std::move(table));
    }
    catalog_path_ = dir + "/query.catalog.v3";
    queries_ = GenerateQueries(tables_, kQueries, MixSeed(seed, 20), digest);

    EPFIS_ASSIGN_OR_RETURN(std::vector<size_t> picked,
                           PickExecuted(MixSeed(seed, 30)));
    for (size_t q : picked) {
      const PlannedQuery& query = queries_[q];
      const epfis::Dataset& data = *tables_[query.table].dataset;
      Executed e;
      e.query = q;
      e.filter_seed = MixSeed(seed, 40 + q);
      std::unique_ptr<epfis::SargableFilter> filter = Filter(e);
      EPFIS_ASSIGN_OR_RETURN(
          std::vector<epfis::PageId> trace,
          epfis::CollectScanTrace(*data.index(), query.query.range,
                                  filter.get()));
      epfis::LruSimulator lru(query.buffer_pages);
      lru.AccessAll(trace);
      e.oracle_entries = data.RecordsInRange(*query.query.range.lo,
                                             *query.query.range.hi);
      e.oracle_records = trace.size();
      e.oracle_fetches = lru.fetches();
      digest.Add(q);
      digest.Add(e.oracle_records);
      digest.Add(e.oracle_fetches);
      executed_.push_back(e);
    }
    chose_index_.assign(kQueries, 0);
    chosen_estimate_.assign(kQueries, 0.0);
    iteration_latency_ns_.assign(kPlanPasses * PlanSamples(kQueries), 0.0f);
    digest_ = digest.value();
    degraded_base_ = RegistryCounter("est_io.degraded");
    return Status::Ok();
  }

  uint64_t InputDigest() const override { return digest_; }

  void Lifecycle(Tracer& tracer, Checks& checks) override {
    // Statistics: collect, save v3, reload into the Catalog, publish.
    double collect_s = 0.0;
    fit_spans_.assign(collect_.size(), kNoSpan);
    for (size_t i = 0; i < collect_.size(); ++i) {
      fit_spans_[i] =
          CollectIndex(collect_[i], i, staging_, tracer, checks, &collect_s);
    }
    {
      ScopedSpan span(tracer, Op::kCatalogSave, 0);
      checks.Call(Layer::kCatalog, staging_.SaveToFileV3(catalog_path_));
    }
    {
      ScopedSpan span(tracer, Op::kCatalogLoad, 0);
      checks.Call(Layer::kCatalog,
                  catalog_.stats().LoadFromFile(catalog_path_));
    }
    {
      ScopedSpan span(tracer, Op::kCatalogPublish, 0);
      checks.Call(Layer::kCatalog, catalog_.stats().Publish());
    }
    double refs = 0.0;
    for (const TraceIndex& index : collect_) refs += index.records;
    collect_rate_.push_back(refs / collect_s * 1e-6);

    // Compilation: every query, kPlanPasses times.
    for (size_t pass = 0; pass < kPlanPasses; ++pass) {
      PlanQueries(optimizer_, queries_, tracer, checks,
                  iteration_latency_ns_.data() + pass * PlanSamples(kQueries),
                  chose_index_.data(), chosen_estimate_.data());
    }

    // Execution: the sample.
    double exec_s = 0.0;
    double records = 0.0;
    for (Executed& e : executed_) {
      const PlannedQuery& q = queries_[e.query];
      const epfis::Dataset& data = *tables_[q.table].dataset;
      std::unique_ptr<epfis::SargableFilter> filter = Filter(e);
      std::unique_ptr<epfis::BufferPool> pool = MakePool(data, q, tracer);
      int64_t start = ThreadCpuNs();
      Result<epfis::IndexScanResult> scan = [&] {
        ScopedSpan span(tracer, Op::kIndexScan, e.query);
        return epfis::RunIndexScan(*data.index(), *data.table(), pool.get(),
                                   q.query.range, filter.get());
      }();
      exec_s += SecondsBetween(start, ThreadCpuNs());
      checks.Call(Layer::kScan, scan.status());
      e.index = scan.ok() ? *scan : epfis::IndexScanResult{};
      e.index_pool = pool->stats();
      records += static_cast<double>(e.index.records_fetched);

      std::unique_ptr<epfis::BufferPool> table_pool = MakePool(data, q, tracer);
      start = ThreadCpuNs();
      Result<epfis::TableScanResult> table = [&] {
        ScopedSpan span(tracer, Op::kTableScan, e.query);
        return epfis::RunTableScan(*data.table(), table_pool.get(),
                                   q.query.range, 0);
      }();
      exec_s += SecondsBetween(start, ThreadCpuNs());
      checks.Call(Layer::kScan, table.status());
      e.table = table.ok() ? *table : epfis::TableScanResult{};
      e.table_pool = table_pool->stats();
      records += static_cast<double>(e.table.records_scanned);
    }
    exec_rate_.push_back(records / exec_s * 1e-6);
    ++iterations_;
  }

  void CheckIteration(Checks& checks) override {
    latency_ns_.insert(latency_ns_.end(), iteration_latency_ns_.begin(),
                       iteration_latency_ns_.end());
    std::vector<IndexStats> stats;
    for (const Table& table : tables_) {
      Result<IndexStats> got = catalog_.stats().Get(table.index_name);
      checks.Call(Layer::kCatalog, got.status());
      if (!got.ok()) return;
      stats.push_back(*got);
    }
    // Every index-scan plan's estimate is finite and within [0, S·σ·N].
    uint64_t out_of_range = 0;
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (chose_index_[i] == 0) continue;
      const PlannedQuery& q = queries_[i];
      if (!InBounds(chosen_estimate_[i], q, stats[q.table])) ++out_of_range;
    }
    checks.Expect(Layer::kEstIo, out_of_range == 0,
                  "every chosen estimate is finite and within [0, S*sigma*N]");

    std::vector<double> est, act, frac, chosen, index_actual, pages;
    for (const Executed& e : executed_) {
      const PlannedQuery& q = queries_[e.query];
      const IndexStats& s = stats[q.table];
      std::string what = "query " + std::to_string(e.query) + ": ";
      checks.Expect(Layer::kIndex, e.index.entries_examined == e.oracle_entries,
                    what + "entries examined = Dataset::RecordsInRange");
      checks.Expect(Layer::kScan, e.index.records_fetched == e.oracle_records,
                    what + "records fetched = the filtered range");
      checks.Expect(Layer::kPool, e.index.data_page_fetches == e.oracle_fetches,
                    what + "BufferPool fetches = LruSimulator fetches");
      double t = static_cast<double>(tables_[q.table].dataset->num_pages());
      checks.Expect(Layer::kScan,
                    static_cast<double>(e.table.pages_fetched) == t,
                    what + "table scan fetches T pages");
      epfis::ScanSpec scan{q.query.sigma, q.query.sargable_selectivity,
                           q.buffer_pages};
      Result<double> estimate = epfis::EstIo::Estimate(s, scan);
      checks.Call(Layer::kEstIo, estimate.status());
      if (!estimate.ok()) continue;
      checks.Expect(Layer::kEstIo, InBounds(*estimate, q, s),
                    what + "estimate finite and within [0, S*sigma*N]");
      bool chose_index = chose_index_[e.query] != 0;
      if (chose_index) {
        checks.Expect(Layer::kOptimizer,
                      std::memcmp(&*estimate, &chosen_estimate_[e.query],
                                  sizeof(double)) == 0,
                      what + "the chosen plan carries the Est-IO estimate");
      }
      double actual = static_cast<double>(e.index.data_page_fetches);
      est.push_back(*estimate);
      act.push_back(actual);
      frac.push_back(q.buffer_frac);
      chosen.push_back(chose_index
                           ? actual
                           : static_cast<double>(e.table.pages_fetched));
      index_actual.push_back(actual);
      pages.push_back(t);
    }
    est_err_pct_ = AggregateErrPct(est, act);
    est_err_max_pct_ = MaxDecileErrPct(frac, est, act);
    plan_regret_ = PlanRegret(chosen, index_actual, pages);
  }

  void SeparatePasses(Tracer& tracer, Checks& checks) override {
    for (size_t i = 0; i < collect_.size(); ++i) {
      SeparateCollectPasses(collect_[i], i, fit_spans_[i], tracer, checks);
    }
    SeparatePlanPasses(catalog_, queries_, kPlanPasses, kNoSpan, tracer,
                       checks);
  }

  double StatsMrefsPerS() const override { return collect_rate_.back(); }

  void ReportWorkload(Report& report) const override {
    report.Info("collect_mrefs_per_s", Median(collect_rate_), "Mrefs/s");
    ReportLatency(report, latency_ns_);
    report.Info("exec_mrecs_per_s", Median(exec_rate_), "Mrecs/s",
                std::to_string(executed_.size()) + " queries executed");
    report.Info("est_err_pct", est_err_pct_, "%");
    report.Info("est_err_max_pct", est_err_max_pct_, "%", "worst B/T decile");
    report.Info("plan_regret", plan_regret_, "ratio");
  }

  Counts LayerCounts() const override {
    Counts counts;
    double refs = 0.0;
    for (const TraceIndex& index : collect_) refs += index.records;
    double n = static_cast<double>(collect_.size());
    double queries = static_cast<double>(kPlanPasses * queries_.size());
    counts["epfis.trace.refs"] = refs;
    counts["buffer.kernel.refs"] = refs;
    counts["buffer.kernel.sampled_refs"] = refs;
    counts["buffer.kernel.sample_ratio"] = 1.0;
    counts["epfis.lru_fit.calls"] = n;
    counts["catalog.puts"] = n;
    counts["catalog.publishes"] = 1;
    std::error_code ec;
    auto bytes = std::filesystem::file_size(catalog_path_, ec);
    counts["catalog.bytes"] = ec ? 0.0 : static_cast<double>(bytes);
    counts["exec.optimizer.queries"] = queries;
    // Each Choose costs a table scan plus one index-scan plan.
    counts["exec.optimizer.plans"] = 2 * queries;
    counts["epfis.est_io.probes"] = queries;
    counts["epfis.est_io.fallbacks"] =
        static_cast<double>(RegistryCounter("est_io.degraded") -
                            degraded_base_) /
        static_cast<double>(iterations_);
    double index_scans = 0, table_scans = 0, records = 0, entries = 0;
    epfis::BufferPoolStats pool;
    auto add = [&pool](const epfis::BufferPoolStats& s) {
      pool.requests += s.requests;
      pool.hits += s.hits;
      pool.fetches += s.fetches;
      pool.evictions += s.evictions;
    };
    for (const Executed& e : executed_) {
      ++index_scans;
      records += e.index.records_fetched;
      entries += e.index.entries_examined;
      add(e.index_pool);
      ++table_scans;
      records += e.table.records_scanned;
      add(e.table_pool);
    }
    counts["exec.scan.index_scans"] = index_scans;
    counts["exec.scan.table_scans"] = table_scans;
    counts["exec.scan.records"] = records;
    counts["buffer.pool.requests"] = pool.requests;
    counts["buffer.pool.fetches"] = pool.fetches;
    counts["buffer.pool.evictions"] = pool.evictions;
    counts["buffer.pool.hit_ratio"] =
        pool.requests > 0 ? static_cast<double>(pool.hits) / pool.requests
                          : 0.0;
    counts["index.entries_examined"] = entries;
    return counts;
  }

 private:
  /// Draws queries in seeded random order and keeps the first kPerBucket
  /// whose record fraction falls in each size bucket.
  Result<std::vector<size_t>> PickExecuted(uint64_t seed) const {
    constexpr size_t kBuckets = std::size(kSizeBuckets) - 1;
    std::vector<size_t> filled(kBuckets, 0);
    std::vector<size_t> picked;
    epfis::Rng rng(seed);
    for (size_t draw = 0; draw < 100 * kQueries; ++draw) {
      if (picked.size() == kBuckets * kPerBucket) {
        std::sort(picked.begin(), picked.end());
        return picked;
      }
      size_t q = rng.NextBounded(kQueries);
      const PlannedQuery& query = queries_[q];
      const epfis::Dataset& data = *tables_[query.table].dataset;
      double fraction =
          static_cast<double>(data.RecordsInRange(*query.query.range.lo,
                                                  *query.query.range.hi)) /
          static_cast<double>(data.num_records());
      for (size_t b = 0; b < kBuckets; ++b) {
        if (fraction >= kSizeBuckets[b] && fraction < kSizeBuckets[b + 1] &&
            filled[b] < kPerBucket &&
            std::find(picked.begin(), picked.end(), q) == picked.end()) {
          ++filled[b];
          picked.push_back(q);
        }
      }
    }
    return Status::Internal("query stream lacks scans of some sample size");
  }

  static std::unique_ptr<epfis::BufferPool> MakePool(
      const epfis::Dataset& data, const PlannedQuery& q, Tracer& tracer) {
    ScopedSpan span(tracer, Op::kMakePool, q.table);
    return data.MakeDataPool(q.buffer_pages);
  }

  std::unique_ptr<epfis::SargableFilter> Filter(const Executed& e) const {
    double s = queries_[e.query].query.sargable_selectivity;
    if (s >= 1.0) return nullptr;
    return std::make_unique<epfis::SargableFilter>(s, e.filter_seed);
  }

  static bool InBounds(double estimate, const PlannedQuery& q,
                       const IndexStats& s) {
    double cap = q.query.sargable_selectivity * q.query.sigma *
                 static_cast<double>(s.table_records);
    return std::isfinite(estimate) && estimate >= 0.0 && estimate <= cap;
  }

  epfis::Catalog catalog_;
  epfis::AccessPathOptimizer optimizer_;
  std::vector<Table> tables_;
  std::vector<TraceIndex> collect_;
  std::vector<PlannedQuery> queries_;
  std::vector<Executed> executed_;
  std::string catalog_path_;
  uint64_t digest_ = 0;
  uint64_t degraded_base_ = 0;

  epfis::StatsCatalog staging_;
  std::vector<uint32_t> fit_spans_;
  std::vector<uint8_t> chose_index_;
  std::vector<double> chosen_estimate_;
  std::vector<float> iteration_latency_ns_;
  std::vector<float> latency_ns_;
  std::vector<double> collect_rate_;
  std::vector<double> exec_rate_;
  uint64_t iterations_ = 0;
  double est_err_pct_ = 0.0;
  double est_err_max_pct_ = 0.0;
  double plan_regret_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeQuery() {
  return std::make_unique<QueryWorkload>();
}

}  // namespace lcb
