#ifndef EPFIS_WORKLOAD_SCAN_GEN_H_
#define EPFIS_WORKLOAD_SCAN_GEN_H_

#include <cstdint>
#include <string>

#include "util/random.h"
#include "util/result.h"
#include "workload/dataset.h"

namespace epfis {

/// One partial (or full) index scan: an inclusive key range with its exact
/// record count and selectivity on the underlying dataset.
struct ScanRange {
  int64_t lo_key = 1;
  int64_t hi_key = 1;
  uint64_t num_records = 0;
  double sigma = 0.0;
};

/// Scan mixes used in §5's experiments.
enum class ScanMix {
  kMixed,      ///< 50/50 small/large (the headline experiments).
  kSmallOnly,  ///< r in (0, 0.2).
  kLargeOnly,  ///< r in (0.2, 1).
  kFullOnly,   ///< full index scans.
};

/// Generates the paper's random partial scans (§5): a target fraction r is
/// drawn, a starting key k1 is picked uniformly among keys with at least
/// r*N records at or after them, and the stopping key k2 is the smallest
/// key such that [k1, k2] covers at least r*N records.
class ScanGenerator {
 public:
  ScanGenerator(const Dataset* dataset, uint64_t seed);

  /// Small scan: r uniform in (0, 0.2).
  ScanRange Small();

  /// Large scan: r uniform in (0.2, 1).
  ScanRange Large();

  /// Full scan of the whole key domain.
  ScanRange Full();

  /// Draws from `mix` (for kMixed, small or large with probability 0.5
  /// each, as in the paper).
  ScanRange Next(ScanMix mix);

  /// A scan covering at least fraction `r` of the records, built per the
  /// paper's procedure. r is clamped to (0, 1].
  ScanRange FromFraction(double r);

 private:
  const Dataset* dataset_;
  Rng rng_;
};

/// Human-readable mix name for reports.
std::string ScanMixName(ScanMix mix);

}  // namespace epfis

#endif  // EPFIS_WORKLOAD_SCAN_GEN_H_
