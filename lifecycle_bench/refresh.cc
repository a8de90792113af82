// `refresh`: a statistics daemon refreshing every index, one at a time.
//
// Set-up generates §5.2 placements (no storage is materialized) and
// writes each index's full-scan trace to a file. The timed loop runs
// OpenTraceSource -> RunLruFit -> StatsCatalog::Put per index, then
// SaveToFileV3 -> OpenCatalogSnapshotV3 -> Publish. The index set:
//
//   grid     the paper's 12 cells, theta {0, 0.86} x K {0,.05,.1,.2,.5,1},
//            N = 10^6, R = 40, I = 10^4, fitted exactly; the kernel's
//            working set (T = 25,000 pages) fits in L2.
//   large    two N = 5*10^6 indexes at R = 20 (T = 250,000 pages, the page
//            count of an N = 10^7, R = 40 table), fitted exactly; the
//            working set spills past L2.
//   sampled  one N = 2*10^7 index at SHARDS rate 0.01, where the
//            per-reference sampling filter carries the cost.

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "buffer/stack_distance.h"
#include "catalog/catalog_v3.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "epfis/trace_io.h"
#include "epfis/trace_source.h"
#include "workload.h"
#include "workload/data_gen.h"

namespace lcb {
namespace {

using epfis::IndexStats;
using epfis::Result;
using epfis::Status;

enum Group { kGrid, kLarge, kSampled, kGroups };

struct IndexSpec {
  Group group;
  uint64_t records;
  uint64_t distinct;
  uint32_t records_per_page;
  double theta;
  double window;
  double sample_rate;
};

std::vector<IndexSpec> IndexSpecs() {
  std::vector<IndexSpec> specs;
  for (double theta : {0.0, 0.86}) {
    for (double window : {0.0, 0.05, 0.1, 0.2, 0.5, 1.0}) {
      specs.push_back({kGrid, 1'000'000, 10'000, 40, theta, window, 1.0});
    }
  }
  specs.push_back({kLarge, 5'000'000, 50'000, 20, 0.86, 0.1, 1.0});
  specs.push_back({kLarge, 5'000'000, 50'000, 20, 0.86, 0.5, 1.0});
  specs.push_back({kSampled, 20'000'000, 200'000, 40, 0.86, 0.2, 0.01});
  return specs;
}

std::string IndexName(const IndexSpec& spec) {
  static const char* kGroupName[] = {"grid", "large", "sampled"};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s_theta%.2f_K%.2f_R%.2f",
                kGroupName[spec.group], spec.theta, spec.window,
                spec.sample_rate);
  return buf;
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

class Refresh final : public Workload {
 public:
  Status Setup(uint64_t seed, const std::string& dir) override {
    std::vector<IndexSpec> specs = IndexSpecs();
    Digest digest;
    for (size_t i = 0; i < specs.size(); ++i) {
      const IndexSpec& spec = specs[i];
      epfis::SyntheticSpec synth;
      synth.num_records = spec.records;
      synth.num_distinct = spec.distinct;
      synth.records_per_page = spec.records_per_page;
      synth.theta = spec.theta;
      synth.window_fraction = spec.window;
      synth.seed = MixSeed(seed, i);
      std::vector<epfis::PageId> trace;
      uint64_t pages = 0;
      {
        EPFIS_ASSIGN_OR_RETURN(epfis::Placement placement,
                               epfis::GeneratePlacement(synth));
        pages = placement.num_pages;
        trace = epfis::PlacementTrace(placement);
      }
      TraceIndex index;
      index.name = IndexName(spec);
      index.path = dir + "/" + index.name + ".trace";
      index.table_pages = pages;
      index.distinct_keys = spec.distinct;
      index.records = trace.size();
      index.pages_accessed = DistinctPages(trace, pages);
      index.sample_rate = spec.sample_rate;
      digest.AddAll(trace);
      digest.Add(pages);
      EPFIS_RETURN_IF_ERROR(epfis::SavePageTrace(trace, index.path));
      indexes_.push_back(index);
      groups_.push_back(spec.group);
      if (spec.group == kGrid && spec.theta > 0 && spec.window == 0.05) {
        legacy_index_ = i;
      }
    }
    digest_ = digest.value();
    catalog_path_ = dir + "/refresh.catalog.v3";
    simulate_ns_base_ = RegistryHistogramSum("lru_fit.simulate_ns");
    fit_ns_base_ = RegistryHistogramSum("lru_fit.fit_ns");
    return Status::Ok();
  }

  uint64_t InputDigest() const override { return digest_; }

  void Lifecycle(Tracer& tracer, Checks& checks) override {
    double seconds[kGroups] = {};
    fit_spans_.assign(indexes_.size(), kNoSpan);
    for (size_t i = 0; i < indexes_.size(); ++i) {
      fit_spans_[i] = CollectIndex(indexes_[i], i, daemon_, tracer, checks,
                                   &seconds[groups_[i]]);
    }
    {
      ScopedSpan span(tracer, Op::kCatalogSave, 0);
      checks.Call(Layer::kCatalog, daemon_.SaveToFileV3(catalog_path_));
    }
    {
      ScopedSpan span(tracer, Op::kCatalogLoad, 0);
      auto snapshot = epfis::OpenCatalogSnapshotV3(catalog_path_);
      checks.Call(Layer::kCatalog, snapshot.status());
      reopened_ = snapshot.ok() ? *snapshot : nullptr;
    }
    {
      ScopedSpan span(tracer, Op::kCatalogPublish, 0);
      checks.Call(Layer::kCatalog, daemon_.Publish());
    }
    ++iterations_;
    double refs[kGroups] = {};
    for (size_t i = 0; i < indexes_.size(); ++i) {
      refs[groups_[i]] += static_cast<double>(indexes_[i].records);
    }
    exact_rate_.push_back((refs[kGrid] + refs[kLarge]) /
                          (seconds[kGrid] + seconds[kLarge]) * 1e-6);
    sampled_rate_.push_back(refs[kSampled] / seconds[kSampled] * 1e-6);
  }

  void CheckIteration(Checks& checks) override {
    uint64_t generation = daemon_.snapshot()->generation();
    checks.Expect(Layer::kCatalog, generation > generation_,
                  "Publish advances the catalog generation");
    generation_ = generation;
    checks.Expect(Layer::kCatalog,
                  reopened_ != nullptr && reopened_->size() == indexes_.size(),
                  "the reopened v3 snapshot holds every index");
    for (size_t i = 0; i < indexes_.size(); ++i) {
      const TraceIndex& index = indexes_[i];
      Result<IndexStats> got = daemon_.Get(index.name);
      checks.Call(Layer::kCatalog, got.status());
      if (!got.ok()) continue;
      CheckEntry(index, groups_[i], *got, checks);
    }
  }

  void SeparatePasses(Tracer& tracer, Checks& checks) override {
    for (size_t i = 0; i < indexes_.size(); ++i) {
      SeparateCollectPasses(indexes_[i], i, fit_spans_[i], tracer, checks);
    }
  }

  void FinalChecks(Checks& checks) override {
    // The kernel's FPF points for one grid index against the legacy
    // Mattson simulator, and the catalog knots against those points.
    const TraceIndex& index = indexes_[legacy_index_];
    Result<IndexStats> stats = daemon_.Get(index.name);
    auto trace = epfis::LoadPageTrace(index.path);
    auto source = epfis::OpenTraceSource(index.path);
    checks.Call(Layer::kCatalog, stats.status());
    checks.Call(Layer::kTrace, trace.status());
    checks.Call(Layer::kTrace, source.status());
    if (!stats.ok() || !trace.ok() || !source.ok()) return;
    epfis::StackDistanceSimulator legacy(trace->size());
    legacy.AccessAll(*trace);
    auto points = epfis::SampleFpfCurve(**source, stats->b_min, stats->b_max,
                                        epfis::BufferSchedule::kPaperLinear);
    checks.Call(Layer::kKernel, points.status());
    if (!points.ok()) return;
    uint64_t mismatched = 0;
    std::map<double, double> exact;
    for (const epfis::FpfPoint& p : *points) {
      if (p.fetches != legacy.Fetches(p.buffer_size)) ++mismatched;
      exact[static_cast<double>(p.buffer_size)] =
          static_cast<double>(p.fetches);
    }
    checks.Expect(Layer::kKernel, mismatched == 0 && !points->empty(),
                  "kernel FPF points equal the legacy simulator's");
    bool knots_exact = stats->fpf.has_value();
    if (knots_exact) {
      for (const epfis::Knot& knot : stats->fpf->knots()) {
        auto it = exact.find(knot.x);
        knots_exact = knots_exact && it != exact.end() && it->second == knot.y;
      }
    }
    checks.Expect(Layer::kLruFit, knots_exact,
                  "catalog knots sit on the exact FPF points");
  }

  double StatsMrefsPerS() const override { return exact_rate_.back(); }

  void ReportWorkload(Report& report) const override {
    double refs[kGroups] = {};
    for (size_t i = 0; i < indexes_.size(); ++i) {
      refs[groups_[i]] += static_cast<double>(indexes_[i].records);
    }
    report.Info("collect_mrefs_per_s", Median(exact_rate_), "Mrefs/s",
                "exact groups, " + FormatNumber(refs[kGrid] + refs[kLarge]) +
                    " refs per lifecycle");
    report.Info("collect_sampled_mrefs_per_s", Median(sampled_rate_),
                "Mrefs/s",
                "R = 0.01 group, " + FormatNumber(refs[kSampled]) +
                    " full-trace refs per lifecycle");
  }

  Counts LayerCounts() const override {
    Counts counts;
    double refs = 0.0;
    double sampled = 0.0;
    for (const TraceIndex& index : indexes_) {
      refs += static_cast<double>(index.records);
      Result<IndexStats> got = daemon_.Get(index.name);
      if (got.ok()) sampled += static_cast<double>(got->sampled_refs);
    }
    double n = static_cast<double>(indexes_.size());
    counts["epfis.trace.refs"] = refs;
    counts["buffer.kernel.refs"] = refs;
    counts["buffer.kernel.sampled_refs"] = sampled;
    counts["buffer.kernel.sample_ratio"] = sampled / refs;
    counts["epfis.lru_fit.calls"] = n;
    counts["catalog.puts"] = n;
    counts["catalog.publishes"] = 1;
    std::error_code ec;
    auto bytes = std::filesystem::file_size(catalog_path_, ec);
    counts["catalog.bytes"] = ec ? 0.0 : static_cast<double>(bytes);
    double per_lifecycle = 1e-9 / static_cast<double>(iterations_);
    counts["epfis.lru_fit.registry_simulate_s"] =
        static_cast<double>(RegistryHistogramSum("lru_fit.simulate_ns") -
                            simulate_ns_base_) *
        per_lifecycle;
    counts["epfis.lru_fit.registry_fit_s"] =
        static_cast<double>(RegistryHistogramSum("lru_fit.fit_ns") -
                            fit_ns_base_) *
        per_lifecycle;
    return counts;
  }

 private:
  void CheckEntry(const TraceIndex& index, Group group, const IndexStats& s,
                  Checks& checks) const {
    const std::string& name = index.name;
    checks.Expect(Layer::kLruFit, s.table_records == index.records,
                  name + ": N equals the trace length");
    if (group == kSampled) {
      checks.Expect(Layer::kKernel,
                    s.sample_rate < 1.0 && s.sampled_refs > 0 &&
                        s.sampled_refs < s.table_records,
                    name + ": the statistics pass was sampled");
      checks.Expect(Layer::kLruFit, s.pages_accessed <= s.table_pages,
                    name + ": A within T");
    } else {
      double a = static_cast<double>(index.pages_accessed);
      checks.Expect(Layer::kLruFit, s.pages_accessed == index.pages_accessed,
                    name + ": A equals the distinct pages of the trace");
      bool monotone = s.fpf.has_value();
      bool flat_past_a = monotone;
      if (monotone) {
        const std::vector<epfis::Knot>& knots = s.fpf->knots();
        for (size_t k = 0; k < knots.size(); ++k) {
          if (k > 0 && knots[k].y > knots[k - 1].y) monotone = false;
          if (knots[k].x >= a && knots[k].y != a) flat_past_a = false;
        }
      }
      checks.Expect(Layer::kLruFit, monotone,
                    name + ": F is non-increasing in B");
      // The knots are exact fetch counts; the last one sits at B = T >= A.
      checks.Expect(Layer::kLruFit, flat_past_a,
                    name + ": F(B) = A at every knot with B >= A");
    }
    if (reopened_ == nullptr) return;
    // Estimates from the reopened v3 snapshot are bit-identical to the
    // in-memory entry's.
    epfis::TableShape shape{s.table_pages, s.table_records};
    uint64_t mismatched = 0;
    for (double sigma : {0.001, 0.05, 0.3, 1.0}) {
      for (double sargable : {1.0, 0.3}) {
        for (uint64_t b : {s.b_min, (s.b_min + s.b_max) / 2, s.b_max}) {
          epfis::ScanSpec scan{sigma, sargable, b};
          auto mem = epfis::EstIo::Estimate(s, scan);
          auto v3 = epfis::EstIo::EstimateFromCatalog(*reopened_, name, scan,
                                                      shape);
          if (!mem.ok() || !v3.ok() ||
              v3->source != epfis::EstimateSource::kLruFitCurve ||
              !BitEqual(*mem, v3->fetches)) {
            ++mismatched;
          }
        }
      }
    }
    checks.Expect(Layer::kCatalog, mismatched == 0,
                  name + ": v3 snapshot estimates are bit-identical");
  }

  std::vector<TraceIndex> indexes_;
  std::vector<Group> groups_;
  size_t legacy_index_ = 0;
  uint64_t digest_ = 0;
  std::string catalog_path_;
  uint64_t simulate_ns_base_ = 0;
  uint64_t fit_ns_base_ = 0;

  epfis::StatsCatalog daemon_;
  std::shared_ptr<const epfis::CatalogSnapshot> reopened_;
  uint64_t generation_ = 0;
  std::vector<uint32_t> fit_spans_;
  uint64_t iterations_ = 0;
  std::vector<double> exact_rate_;
  std::vector<double> sampled_rate_;
};

}  // namespace

std::unique_ptr<Workload> MakeRefresh() { return std::make_unique<Refresh>(); }

}  // namespace lcb
