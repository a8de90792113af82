#ifndef EPFIS_HARNESS_CONTENTION_H_
#define EPFIS_HARNESS_CONTENTION_H_

#include <cstdint>
#include <vector>

#include "util/result.h"
#include "workload/dataset.h"
#include "workload/scan_gen.h"

namespace epfis {

/// How concurrent scans' page references are interleaved into the shared
/// buffer's reference string.
enum class InterleaveMode {
  /// One reference from each live stream in turn (steady concurrent
  /// progress — intra-query parallelism).
  kRoundRobin,
  /// Each step picks a random live stream (bursty multi-user traffic).
  kRandom,
};

/// Configuration for a contention experiment (§6 future work: "intra-query
/// contention, and multi-user contention").
struct ContentionConfig {
  uint64_t buffer_pages = 0;  ///< Shared LRU pool size.
  InterleaveMode mode = InterleaveMode::kRoundRobin;
  uint64_t seed = 1;
};

/// Per-stream outcome of a contention run.
struct StreamContention {
  uint64_t references = 0;      ///< Length of the stream's trace.
  uint64_t solo_fetches = 0;    ///< Alone with the full buffer.
  uint64_t share_fetches = 0;   ///< Alone with buffer / num_streams.
  uint64_t shared_fetches = 0;  ///< Measured under actual sharing.
};

/// Result of RunContentionExperiment.
struct ContentionResult {
  std::vector<StreamContention> streams;
  uint64_t total_solo = 0;
  uint64_t total_share_model = 0;  ///< Sum of share_fetches: the classic
                                   ///< "equal share of the pool" estimate.
  uint64_t total_shared = 0;       ///< Measured total under contention.

  /// Fetch inflation caused by sharing: total_shared / total_solo.
  double InflationFactor() const;
};

/// Runs `scans` concurrently against one shared LRU buffer of
/// `config.buffer_pages` frames: extracts each scan's data-page reference
/// string, interleaves them, simulates the shared pool with per-stream
/// fetch attribution, and compares against each scan running alone with
/// (a) the whole pool and (b) a 1/m share of it — the simplest contention
/// model an optimizer could use.
Result<ContentionResult> RunContentionExperiment(
    const Dataset& dataset, const std::vector<ScanRange>& scans,
    const ContentionConfig& config);

}  // namespace epfis

#endif  // EPFIS_HARNESS_CONTENTION_H_
