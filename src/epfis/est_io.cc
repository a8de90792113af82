#include "epfis/est_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/formulas.h"

namespace epfis {
namespace {

// One registration per process. The counters give operators the estimate
// volume and which formula paths actually fire.
struct EstIoMetrics {
  Counter estimates;
  Counter full_scans;
  Counter rejected;
  Counter correction_applied;
  Counter sargable_reductions;
  Counter clamped;
  Counter degraded;
  Counter batches;
  Counter batch_probes;
  Counter deadline_shed;

  static EstIoMetrics& Get() {
    static EstIoMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      auto* m = new EstIoMetrics();
      m->estimates = registry.GetCounter("est_io.estimates");
      m->full_scans = registry.GetCounter("est_io.full_scan_estimates");
      m->rejected = registry.GetCounter("est_io.rejected");
      m->correction_applied =
          registry.GetCounter("est_io.correction_applied");
      m->sargable_reductions =
          registry.GetCounter("est_io.sargable_reductions");
      m->clamped = registry.GetCounter("est_io.clamped_at_qualifying");
      m->degraded = registry.GetCounter("est_io.degraded");
      m->batches = registry.GetCounter("est_io.batches");
      m->batch_probes = registry.GetCounter("est_io.batch_probes");
      m->deadline_shed = registry.GetCounter("est_io.deadline_shed");
      return m;
    }();
    return *metrics;
  }
};

// Per-probe counts, tallied in a local and flushed to the registry once
// per call or batch (DESIGN.md §9.1): a probe costs the formula, not a
// string of registry updates.
struct Tally {
  uint64_t estimates = 0;
  uint64_t rejected = 0;
  uint64_t correction_applied = 0;
  uint64_t sargable_reductions = 0;
  uint64_t clamped = 0;
  uint64_t degraded = 0;
  uint64_t deadline_shed = 0;

  void Flush() const {
    EstIoMetrics& metrics = EstIoMetrics::Get();
    auto add = [](Counter& counter, uint64_t n) {
      if (n != 0) counter.Increment(n);
    };
    add(metrics.estimates, estimates);
    add(metrics.rejected, rejected);
    add(metrics.correction_applied, correction_applied);
    add(metrics.sargable_reductions, sargable_reductions);
    add(metrics.clamped, clamped);
    add(metrics.degraded, degraded);
    add(metrics.deadline_shed, deadline_shed);
  }
};

// The checks return null when their input is valid, so the hot path
// builds no Status. Written so NaN fails every check (NaN comparisons are
// false).
const char* ScanSpecError(const ScanSpec& scan) {
  if (!(scan.sigma >= 0.0 && scan.sigma <= 1.0)) {
    return "Est-IO: sigma must be in [0, 1]";
  }
  if (!(scan.sargable_selectivity > 0.0 &&
        scan.sargable_selectivity <= 1.0)) {
    return "Est-IO: sargable_selectivity must be in (0, 1]";
  }
  if (scan.buffer_pages == 0) return "Est-IO: buffer_pages must be >= 1";
  return nullptr;
}

const char* OptionsError(const EstIoOptions& options) {
  if (!(options.nu_threshold > 0.0)) {
    return "Est-IO: nu_threshold must be positive";
  }
  if (!(options.correction_divisor > 0.0)) {
    return "Est-IO: correction_divisor must be positive";
  }
  return nullptr;
}

// A call the checks above refused.
Status Rejected(const char* error) {
  EstIoMetrics::Get().rejected.Increment();
  return Status::InvalidArgument(error);
}

// The one evaluation core (paper §4.3 steps 4-7). Every public entry
// point — single-probe, catalog-backed, and batch — funnels through this
// function over an IndexStatsView, which is what makes their results
// bit-identical by construction.
double EstimatePagesCore(const IndexStatsView& view, const ScanSpec& scan,
                         const EstIoOptions& options, Tally& tally) {
  ++tally.estimates;

  double sigma = Clamp(scan.sigma, 0.0, 1.0);
  double s_sarg = Clamp(scan.sargable_selectivity, 0.0, 1.0);
  if (sigma == 0.0 || s_sarg == 0.0) return 0.0;

  double t = static_cast<double>(view.table_pages);
  double n = static_cast<double>(view.table_records);
  double b = static_cast<double>(scan.buffer_pages);
  double c = Clamp(view.clustering, 0.0, 1.0);

  // Step 4: PF_B from the segment approximation.
  double pf_b = FullScanFetchesAt(view, b);

  // Step 5: linear scaling by the range selectivity.
  double estimate = sigma * pf_b;

  // Step 6 (§4.2): heuristic correction for small sigma on unclustered
  // indexes, written in the paper's own shape so each factor is auditable:
  //
  //   correction = nu * min(1, phi / (6 sigma)) * (1 - C) * NCP(T, sigma N)
  //   nu         = 1  iff  phi >= 3 sigma,  else 0
  //
  // The gate and the damping must share the same phi (and the same
  // thresholds scale together through the options): nu decides *whether*
  // the Cardenas term applies, the min(1, .) factor only ramps it in as
  // sigma shrinks. sigma > 0 here (zero returned early), so the divisions
  // are well-defined. Every factor after nu is finite and non-negative,
  // so with nu = 0 the term is +0.0 and is skipped without changing a bit
  // of the final (clamped) estimate.
  if (options.enable_correction && t > 0.0) {
    double ratio = b / t;
    double phi = options.phi_mode == PhiMode::kPaperMax
                     ? std::max(1.0, ratio)
                     : std::min(1.0, ratio);
    double nu = (phi >= options.nu_threshold * sigma) ? 1.0 : 0.0;
    if (nu == 1.0) {
      double damping =
          std::min(1.0, phi / (options.correction_divisor * sigma));
      estimate += nu * damping * (1.0 - c) * CardenasPages(t, sigma * n);
      ++tally.correction_applied;
    }
  }

  // Step 7: urn-model reduction for index-sargable predicates. The paper's
  // final formula multiplies unconditionally, but with S = 1 the factor
  // (1 - (1 - 1/Q)^{sigma N}) would shrink the estimate even though no
  // sargable predicate exists, contradicting Equation 1; so the reduction
  // applies only when a sargable predicate is actually present.
  if (s_sarg < 1.0) {
    double q = c * sigma * t + (1.0 - c) * std::min(t, sigma * n);
    double k = s_sarg * sigma * n;
    if (q >= 1.0 && k > 0.0) {
      double log_miss = std::log1p(-1.0 / q);
      double factor = -std::expm1(k * log_miss);  // 1 - (1 - 1/Q)^k
      estimate *= Clamp(factor, 0.0, 1.0);
      ++tally.sargable_reductions;
    }
  }

  // A scan fetches a page at most once per qualifying record.
  double qualifying = s_sarg * sigma * n;
  if (estimate > qualifying) ++tally.clamped;
  return Clamp(estimate, 0.0, qualifying);
}

// Degraded mode: no trusted FPF curve, so fall back to the classical
// uniform-access estimates over the coarse table shape. k qualifying
// records touch at most k pages; Yao's without-replacement model is the
// better fit when the record count is known, Cardenas otherwise.
CatalogEstimate DegradedEstimate(const ScanSpec& scan,
                                 const TableShape& shape,
                                 Status stats_status, Tally& tally) {
  ++tally.degraded;
  double t = static_cast<double>(shape.table_pages);
  double n = static_cast<double>(shape.table_records);
  double k = scan.sigma * scan.sargable_selectivity * n;
  double estimate;
  if (t < 1.0) {
    estimate = k;  // Shape unknown too: records is the only upper bound.
  } else if (n >= 1.0) {
    estimate = YaoPages(n, t, k);
  } else {
    estimate = CardenasPages(t, k);
  }
  CatalogEstimate out;
  out.fetches = Clamp(estimate, 0.0, std::max(k, 0.0));
  out.source = EstimateSource::kFormulaFallback;
  out.stats_status = std::move(stats_status);
  return out;
}

// The shared lookup/fallback/provenance path for snapshot-backed
// estimation: single-probe EstimateFromCatalog and every EstimateBatch
// probe land here, so their estimates (and provenance) cannot diverge.
// Preconditions: the scan spec and options are already validated, and
// `handle` is either invalid or a slot inside `snapshot`.
CatalogEstimate EstimateResolvedProbe(const CatalogSnapshot& snapshot,
                                      CatalogSnapshot::Handle handle,
                                      const ScanSpec& scan,
                                      const TableShape& shape,
                                      const EstIoOptions& options,
                                      Tally& tally) {
  if (!handle.valid()) {
    return DegradedEstimate(
        scan, shape, Status::NotFound("Est-IO: no statistics for index"),
        tally);
  }
  const CatalogSnapshot::Entry& entry = snapshot.EntryAt(handle);
  if (entry.quarantined) {
    return DegradedEstimate(
        scan, shape,
        Status::Corruption("Est-IO: statistics quarantined: " +
                           std::string(entry.quarantine_reason)),
        tally);
  }
  CatalogEstimate out;
  out.fetches = EstimatePagesCore(entry.view, scan, options, tally);
  out.source = EstimateSource::kLruFitCurve;
  return out;
}

}  // namespace

Result<double> EstIo::Estimate(const IndexStats& stats, const ScanSpec& scan,
                               const EstIoOptions& options) {
  if (const char* error = OptionsError(options)) return Rejected(error);
  if (const char* error = ScanSpecError(scan)) return Rejected(error);
  Tally tally;
  double fetches = EstimatePagesCore(stats.View(), scan, options, tally);
  tally.Flush();
  return fetches;
}

Result<CatalogEstimate> EstIo::EstimateFromCatalog(
    const CatalogSnapshot& snapshot, const std::string& index_name,
    const ScanSpec& scan, const TableShape& shape,
    const EstIoOptions& options) {
  if (const char* error = OptionsError(options)) return Rejected(error);
  if (const char* error = ScanSpecError(scan)) return Rejected(error);
  // The fault point feeds the injected status through the same switch as
  // a real catalog miss, so degraded mode can be drilled without first
  // corrupting a file on disk.
  Status lookup_fault = FaultPoint("est_io.lookup");
  StatusCode code = lookup_fault.code();
  if (!lookup_fault.ok() && code != StatusCode::kNotFound &&
      code != StatusCode::kCorruption) {
    // Not a "statistics unavailable" condition — an I/O or internal
    // error deserves to surface, not to be papered over with a formula.
    return lookup_fault;
  }
  Tally tally;
  CatalogEstimate out =
      lookup_fault.ok()
          ? EstimateResolvedProbe(snapshot, snapshot.Resolve(index_name),
                                  scan, shape, options, tally)
          : DegradedEstimate(scan, shape, std::move(lookup_fault), tally);
  tally.Flush();
  return out;
}

Status EstIo::EstimateBatch(const CatalogSnapshot& snapshot,
                            std::span<const BatchProbe> probes,
                            std::span<CatalogEstimate> results,
                            const EstIoOptions& options) {
  if (results.size() < probes.size()) {
    return Status::InvalidArgument(
        "Est-IO: results span smaller than probes span");
  }
  if (const char* error = OptionsError(options)) return Rejected(error);
  // A valid handle whose slot is out of range is a caller bug (a handle
  // resolved against a *different* snapshot), not a degradable per-probe
  // condition: fail the batch before estimating anything.
  for (const BatchProbe& probe : probes) {
    if (probe.index.valid() && probe.index.slot >= snapshot.size()) {
      return Status::InvalidArgument(
          "Est-IO: batch probe handle does not belong to this snapshot");
    }
  }

  // Process probes grouped by index slot so each entry's knot segments
  // stay hot in cache across its probes. Results are written in probe
  // order and each probe is independent, so the grouping never changes a
  // result. The permutation is skipped when probes already arrive
  // grouped (the common case: one batch per index, or a caller that
  // sorted).
  bool grouped = true;
  for (size_t i = 1; i < probes.size(); ++i) {
    if (probes[i].index.slot < probes[i - 1].index.slot) {
      grouped = false;
      break;
    }
  }

  // Overload protection: once the batch budget is gone, remaining probes
  // are shed with provenance instead of estimated late. `guarded` keeps
  // the unguarded (default) batch free of clock reads, and `shed` latches
  // the first expiry so one batch drains at one verdict.
  const bool guarded = options.cancel.valid() || !options.deadline.infinite();
  Status shed;
  Tally tally;
  auto estimate_one = [&](size_t i) {
    const BatchProbe& probe = probes[i];
    if (guarded) {
      if (shed.ok()) {
        shed = CheckCancel(options.cancel, options.deadline, "Est-IO batch");
      }
      if (!shed.ok()) {
        ++tally.deadline_shed;
        results[i] = CatalogEstimate{0.0, EstimateSource::kRejected, shed};
        return;
      }
    }
    if (const char* error = ScanSpecError(probe.scan)) {
      ++tally.rejected;
      results[i] = CatalogEstimate{0.0, EstimateSource::kRejected,
                                   Status::InvalidArgument(error)};
      return;
    }
    results[i] = EstimateResolvedProbe(snapshot, probe.index, probe.scan,
                                       probe.shape, options, tally);
  };

  if (grouped) {
    for (size_t i = 0; i < probes.size(); ++i) estimate_one(i);
  } else {
    std::vector<uint32_t> order(probes.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return probes[a].index.slot < probes[b].index.slot;
                     });
    for (uint32_t i : order) estimate_one(i);
  }

  EstIoMetrics& metrics = EstIoMetrics::Get();
  metrics.batches.Increment();
  metrics.batch_probes.Increment(probes.size());
  tally.Flush();
  return Status::Ok();
}

Result<double> EstIo::EstimateFullScan(const IndexStats& stats,
                                       uint64_t buffer_pages) {
  if (buffer_pages == 0) return Rejected("Est-IO: buffer_pages must be >= 1");
  EstIoMetrics::Get().full_scans.Increment();
  return stats.FullScanFetches(static_cast<double>(buffer_pages));
}

}  // namespace epfis
