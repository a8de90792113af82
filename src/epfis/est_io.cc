#include "epfis/est_io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/formulas.h"

namespace epfis {
namespace {

// Slots of a Tally, in the order Flush registers their counters. The
// counters give operators the estimate volume and which formula paths
// actually fire.
enum TallySlot : size_t {
  kEstimates,
  kRejected,
  kCorrectionApplied,
  kSargableReductions,
  kClamped,
  kDegraded,
  kBatches,
  kBatchProbes,
  kTallySlots,
};

// Per-call counts, tallied in a local and flushed to the registry once
// per call or batch with one shard lookup (DESIGN.md §9.1): a probe costs
// the formula, not a string of registry updates.
using Tally = std::array<uint64_t, kTallySlots>;

void Flush(const Tally& tally) {
  // Never destroyed, like the registry, so a flush during process
  // teardown still has its counters.
  static auto* counters = new CounterGroup<kTallySlots>(
      MetricsRegistry::Global().GetCounterGroup<kTallySlots>(
          {"est_io.estimates", "est_io.rejected",
           "est_io.correction_applied",
           "est_io.sargable_reductions", "est_io.clamped_at_qualifying",
           "est_io.degraded", "est_io.batches", "est_io.batch_probes"}));
  counters->Add(tally);
}

// A count of one event, flushed on its own.
void CountOne(TallySlot slot) {
  Tally tally{};
  tally[slot] = 1;
  Flush(tally);
}

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
  CountOne(kRejected);
  return Status::InvalidArgument(error);
}

// What one evaluation of the formula found: the estimate and each term it
// was built from.
struct EstimateBreakdown {
  double fetches = 0.0;     // The estimate, clamped to [0, S sigma N].
  double pf_b = 0.0;        // Step 4: full-scan fetches at B.
  uint32_t segment = 0;     // PF_B's segment (FullScanPoint::segment).
  bool corrected = false;   // Step 6 fired (nu = 1) ...
  double correction = 0.0;  // ... and added this term.
  bool reduced = false;     // Step 7 fired ...
  double urn_factor = 1.0;  // ... and scaled by this factor.
  bool clamped = false;     // The estimate exceeded S sigma N.
};

// The one evaluation core (paper §4.3 steps 4-7), a pure function of a
// validated scan spec and options. Every public entry point evaluates
// through it over an IndexStatsView, which is what makes their results
// bit-identical by construction, and tallies its counters from the
// breakdown.
EstimateBreakdown EvaluateCore(const IndexStatsView& view,
                               const ScanSpec& scan,
                               const EstIoOptions& options) {
  EstimateBreakdown out;
  double sigma = Clamp(scan.sigma, 0.0, 1.0);
  double s_sarg = Clamp(scan.sargable_selectivity, 0.0, 1.0);
  if (sigma == 0.0 || s_sarg == 0.0) return out;

  double t = static_cast<double>(view.table_pages);
  double n = static_cast<double>(view.table_records);
  double b = static_cast<double>(scan.buffer_pages);
  double c = Clamp(view.clustering, 0.0, 1.0);

  // Step 4: PF_B from the segment approximation.
  FullScanPoint point = FullScanPointAt(view, b);
  out.pf_b = point.fetches;
  out.segment = point.segment;

  // Step 5: linear scaling by the range selectivity.
  double estimate = sigma * out.pf_b;

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
    if (phi >= options.nu_threshold * sigma) {
      double damping =
          std::min(1.0, phi / (options.correction_divisor * sigma));
      out.corrected = true;
      out.correction = damping * (1.0 - c) * CardenasPages(t, sigma * n);
      estimate += out.correction;
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
      out.reduced = true;
      // 1 - (1 - 1/Q)^k.
      out.urn_factor = Clamp(-std::expm1(k * log_miss), 0.0, 1.0);
      estimate *= out.urn_factor;
    }
  }

  // A scan fetches a page at most once per qualifying record.
  double qualifying = s_sarg * sigma * n;
  out.clamped = estimate > qualifying;
  out.fetches = Clamp(estimate, 0.0, qualifying);
  return out;
}

// Tallies one curve estimate's counters from its breakdown.
void Count(const EstimateBreakdown& breakdown, Tally& tally) {
  ++tally[kEstimates];
  tally[kCorrectionApplied] += breakdown.corrected;
  tally[kSargableReductions] += breakdown.reduced;
  tally[kClamped] += breakdown.clamped;
}

// Degraded mode: no trusted FPF curve, so fall back to the classical
// uniform-access estimates over the coarse table shape. k qualifying
// records touch at most k pages; Yao's without-replacement model is the
// better fit when the record count is known, Cardenas otherwise.
CatalogEstimate DegradedEstimate(const ScanSpec& scan,
                                 const TableShape& shape,
                                 Status stats_status, Tally& tally) {
  ++tally[kDegraded];
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
  EstimateBreakdown breakdown = EvaluateCore(entry.view, scan, options);
  Count(breakdown, tally);
  CatalogEstimate out;
  out.fetches = breakdown.fetches;
  out.source = EstimateSource::kLruFitCurve;
  return out;
}

}  // namespace

Result<double> EstIo::Estimate(const IndexStats& stats, const ScanSpec& scan,
                               const EstIoOptions& options) {
  return Estimate(stats.View(), scan, options);
}

Result<double> EstIo::Estimate(const IndexStatsView& stats,
                               const ScanSpec& scan,
                               const EstIoOptions& options) {
  if (const char* error = OptionsError(options)) return Rejected(error);
  if (const char* error = ScanSpecError(scan)) return Rejected(error);
  EstimateBreakdown breakdown = EvaluateCore(stats, scan, options);
  Tally tally{};
  Count(breakdown, tally);
  Flush(tally);
  return breakdown.fetches;
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
  Tally tally{};
  CatalogEstimate out =
      lookup_fault.ok()
          ? EstimateResolvedProbe(snapshot, snapshot.Resolve(index_name),
                                  scan, shape, options, tally)
          : DegradedEstimate(scan, shape, std::move(lookup_fault), tally);
  Flush(tally);
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

  Tally tally{};
  for (size_t i = 0; i < probes.size(); ++i) {
    const BatchProbe& probe = probes[i];
    if (const char* error = ScanSpecError(probe.scan)) {
      ++tally[kRejected];
      results[i] = CatalogEstimate{0.0, EstimateSource::kRejected,
                                   Status::InvalidArgument(error)};
      continue;
    }
    results[i] = EstimateResolvedProbe(snapshot, probe.index, probe.scan,
                                       probe.shape, options, tally);
  }
  ++tally[kBatches];
  tally[kBatchProbes] += probes.size();
  Flush(tally);
  return Status::Ok();
}

}  // namespace epfis
