// `drift`: statistics writes beside plan reads.
//
// Set-up materializes one §5.2 table (5,000 pages) and a phase-shifting
// reference stream over its pages in the shape of bench_online: Zipf 0.9
// with the hot pages in front, then Zipf 0.3 rotated T/2. It also fits the
// phase-2 stream exactly (the oracle the republished entry is judged by)
// and generates a fixed batch of queries. The timed loop feeds
// OnlineLruFit::Ingest one refresh interval at a time, publishing into the
// optimizer's catalog, and plans the query batch with Choose after every
// interval.

#include <cmath>

#include "epfis/lru_fit.h"
#include "epfis/online_lru_fit.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload.h"

namespace lcb {
namespace {

using epfis::IndexStats;
using epfis::PageId;
using epfis::Result;
using epfis::Status;

constexpr uint64_t kRecords = 200'000;  // T = 5,000 pages at R = 40.
constexpr uint64_t kDistinct = 2'000;
constexpr size_t kPhaseRefs = 1'200'000;
constexpr uint64_t kWindowRefs = 200'000;
constexpr uint64_t kInterval = 40'000;
constexpr size_t kPlansPerInterval = 2'000;

Status AppendZipfPhase(uint64_t pages, double theta, uint64_t rotate,
                       epfis::Rng& rng, std::vector<PageId>& stream) {
  EPFIS_ASSIGN_OR_RETURN(epfis::ZipfDistribution zipf,
                         epfis::ZipfDistribution::Make(pages, theta));
  for (size_t i = 0; i < kPhaseRefs; ++i) {
    uint64_t rank = zipf.Sample(rng) - 1;  // 0-based hotness rank.
    stream.push_back(static_cast<PageId>((rank + rotate) % pages));
  }
  return Status::Ok();
}

/// Mean relative error of the per-record FPF of `got` against `want` over
/// an even sweep of `want`'s modeled range.
double MeanRelErr(const IndexStats& got, const IndexStats& want) {
  double sum = 0.0;
  size_t n = 0;
  uint64_t step = std::max<uint64_t>((want.b_max - want.b_min) / 40, 1);
  double got_n = static_cast<double>(got.table_records);
  double want_n = static_cast<double>(want.table_records);
  for (uint64_t b = want.b_min; b <= want.b_max; b += step) {
    double ref = want.FullScanFetches(static_cast<double>(b)) / want_n;
    if (!(ref > 0.0)) continue;
    sum += std::abs(got.FullScanFetches(static_cast<double>(b)) / got_n - ref) /
           ref;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

class Drift final : public Workload {
 public:
  Drift() : optimizer_(&catalog_) {}

  Status Setup(uint64_t seed, const std::string& dir) override {
    (void)dir;
    Digest digest;
    Table table;
    EPFIS_RETURN_IF_ERROR(MakeTable("drift", kRecords, kDistinct, 0.86, 0.2,
                                    MixSeed(seed, 50), catalog_, &table));
    index_name_ = table.index_name;
    uint64_t pages = table.dataset->num_pages();
    tables_.push_back(std::move(table));
    epfis::Rng rng(MixSeed(seed, 51));
    stream_.reserve(2 * kPhaseRefs);
    EPFIS_RETURN_IF_ERROR(AppendZipfPhase(pages, 0.9, 0, rng, stream_));
    EPFIS_RETURN_IF_ERROR(
        AppendZipfPhase(pages, 0.3, pages / 2, rng, stream_));
    digest.AddAll(stream_);
    std::vector<PageId> phase2(stream_.begin() + kPhaseRefs, stream_.end());
    EPFIS_ASSIGN_OR_RETURN(
        reference_, epfis::RunLruFit(phase2, pages, kDistinct, index_name_));
    queries_ = GenerateQueries(tables_, kPlansPerInterval, MixSeed(seed, 52),
                               digest);

    options_.table_pages = pages;
    options_.table_records = kPhaseRefs;
    options_.distinct_keys = kDistinct;
    options_.window_refs = kWindowRefs;
    options_.refresh_interval = kInterval;
    options_.drift.band = 0.2;
    options_.drift.patience = 1;
    iteration_latency_ns_.assign(
        stream_.size() / kInterval * PlanSamples(queries_.size()), 0.0f);
    digest_ = digest.value();
    degraded_base_ = RegistryCounter("est_io.degraded");
    return options_.Validate();
  }

  uint64_t InputDigest() const override { return digest_; }

  void Lifecycle(Tracer& tracer, Checks& checks) override {
    epfis::StatsCatalog& stats = catalog_.stats();
    {
      // Retire the previous iteration's entry.
      ScopedSpan span(tracer, Op::kCatalogPublish, 0);
      stats.Remove(index_name_);
      checks.Call(Layer::kCatalog, stats.Publish());
    }
    epfis::OnlineLruFit engine(index_name_, options_, &stats);
    const size_t intervals = stream_.size() / kInterval;
    const size_t shift = kPhaseRefs / kInterval;
    publishes_after_.clear();
    generations_.clear();
    double ingest_s = 0.0;
    for (size_t c = 0; c < intervals; ++c) {
      int64_t start = ThreadCpuNs();
      Status s = [&] {
        ScopedSpan span(tracer, Op::kIngest, c);
        return engine.Ingest(stream_.data() + c * kInterval, kInterval);
      }();
      ingest_s += SecondsBetween(start, ThreadCpuNs());
      checks.Call(Layer::kOnline, s);
      publishes_after_.push_back(engine.publishes());
      generations_.push_back(stats.snapshot()->generation());
      if (c + 1 == shift) {
        settled_ = engine.publishes();
        stale_ = stats.Get(index_name_);
      }
      PlanQueries(optimizer_, queries_, tracer, checks,
                  iteration_latency_ns_.data() + c * PlanSamples(queries_.size()),
                  nullptr, nullptr);
    }
    fresh_ = stats.Get(index_name_);
    refreshes_ = engine.refreshes();
    publishes_ = engine.publishes();
    online_rate_.push_back(static_cast<double>(stream_.size()) / ingest_s *
                           1e-6);
    ++iterations_;
  }

  void CheckIteration(Checks& checks) override {
    latency_ns_.insert(latency_ns_.end(), iteration_latency_ns_.begin(),
                       iteration_latency_ns_.end());
    bool monotone = true;
    for (size_t i = 1; i < generations_.size(); ++i) {
      if (generations_[i] < generations_[i - 1]) monotone = false;
    }
    checks.Expect(Layer::kCatalog, monotone,
                  "the catalog generation never decreases");
    detect_intervals_ =
        DetectIntervals(publishes_after_, kPhaseRefs / kInterval, settled_);
    checks.Expect(Layer::kOnline, detect_intervals_ >= 1,
                  "the phase shift triggers a republish");
    checks.Call(Layer::kCatalog, stale_.status());
    checks.Call(Layer::kCatalog, fresh_.status());
    if (!stale_.ok() || !fresh_.ok()) return;
    stale_err_pct_ = 100.0 * MeanRelErr(*stale_, reference_);
    fresh_err_pct_ = 100.0 * MeanRelErr(*fresh_, reference_);
    checks.Expect(Layer::kOnline, fresh_err_pct_ < stale_err_pct_,
                  "the republished entry beats the stale one");
  }

  void SeparatePasses(Tracer& tracer, Checks& checks) override {
    SeparatePlanPasses(catalog_, queries_, stream_.size() / kInterval,
                       kNoSpan, tracer, checks);
  }

  double StatsMrefsPerS() const override { return online_rate_.back(); }

  void ReportWorkload(Report& report) const override {
    ReportLatency(report, latency_ns_);
    report.Info("online_mrefs_per_s", Median(online_rate_), "Mrefs/s",
                "time in Ingest, refreshes and publishes included");
    report.Info("drift_detect_intervals", detect_intervals_, "intervals",
                FormatNumber(static_cast<double>(settled_)) +
                    " publishes before the shift, bootstrap included");
    report.Info("drift_fresh_err_pct", fresh_err_pct_, "%",
                "stale entry: " + FormatNumber(stale_err_pct_) + " %");
  }

  Counts LayerCounts() const override {
    Counts counts;
    double intervals = static_cast<double>(stream_.size() / kInterval);
    double queries = intervals * static_cast<double>(queries_.size());
    counts["catalog.publishes"] = static_cast<double>(publishes_) + 1;
    counts["exec.optimizer.queries"] = queries;
    counts["exec.optimizer.plans"] = 2 * queries;
    counts["epfis.est_io.probes"] = queries;
    counts["epfis.est_io.fallbacks"] =
        static_cast<double>(RegistryCounter("est_io.degraded") -
                            degraded_base_) /
        static_cast<double>(iterations_);
    counts["epfis.online.refs"] = static_cast<double>(stream_.size());
    counts["epfis.online.refreshes"] = static_cast<double>(refreshes_);
    counts["epfis.online.publishes"] = static_cast<double>(publishes_);
    counts["epfis.online.publish_ratio"] =
        refreshes_ > 0 ? static_cast<double>(publishes_) / refreshes_ : 0.0;
    return counts;
  }

 private:
  epfis::Catalog catalog_;
  epfis::AccessPathOptimizer optimizer_;
  std::vector<Table> tables_;
  std::string index_name_;
  std::vector<PageId> stream_;
  IndexStats reference_;
  std::vector<PlannedQuery> queries_;
  epfis::OnlineLruFitOptions options_;
  uint64_t digest_ = 0;
  uint64_t degraded_base_ = 0;

  std::vector<uint64_t> publishes_after_;
  std::vector<uint64_t> generations_;
  uint64_t settled_ = 0;
  Result<IndexStats> stale_ = Status::NotFound("no lifecycle ran");
  Result<IndexStats> fresh_ = Status::NotFound("no lifecycle ran");
  uint64_t refreshes_ = 0;
  uint64_t publishes_ = 0;
  std::vector<float> iteration_latency_ns_;
  std::vector<float> latency_ns_;
  std::vector<double> online_rate_;
  uint64_t iterations_ = 0;
  int detect_intervals_ = -1;
  double stale_err_pct_ = 0.0;
  double fresh_err_pct_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeDrift() { return std::make_unique<Drift>(); }

}  // namespace lcb
