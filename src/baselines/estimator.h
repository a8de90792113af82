#ifndef EPFIS_BASELINES_ESTIMATOR_H_
#define EPFIS_BASELINES_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/index_entry.h"
#include "util/result.h"

namespace epfis {

/// Statistics the §3 baseline algorithms derive from a single key-order
/// scan of the index entries (their analogue of LRU-Fit's pass):
///  - cluster_counter: Algorithm DC's CC (incremented when the first page
///    of a key value is >= the last page of the previous key value),
///  - j1 / j3: page fetches of the full scan with an LRU buffer of 1 / 3
///    pages (Algorithms SD and OT).
struct BaselineTraceStats {
  uint64_t table_pages = 0;    ///< T.
  uint64_t table_records = 0;  ///< N.
  uint64_t distinct_keys = 0;  ///< I.
  uint64_t cluster_counter = 0;
  uint64_t j1 = 0;
  uint64_t j3 = 0;
};

/// Collects BaselineTraceStats in one pass over the index entries, which
/// must be sorted by key (the order Dataset::IndexEntries returns). The
/// estimators look only at each entry's key and data page. Fails if
/// empty.
Result<BaselineTraceStats> CollectBaselineTraceStats(
    const std::vector<IndexEntry>& entries, uint64_t table_pages);

/// What a baseline estimator is asked to cost: a partial scan with range
/// selectivity sigma under a buffer of `buffer_pages`. (None of the §3
/// baselines model index-sargable predicates; callers scale by S
/// separately when comparing on sargable workloads.)
struct EstimatorQuery {
  double sigma = 1.0;
  uint64_t buffer_pages = 0;
};

/// Interface shared by the classic estimators so the experiment harness
/// can sweep them uniformly.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Short display name ("ML", "DC", "SD", "OT", ...).
  virtual std::string name() const = 0;

  /// Estimated number of data-page fetches for the scan.
  virtual double Estimate(const EstimatorQuery& query) const = 0;
};

}  // namespace epfis

#endif  // EPFIS_BASELINES_ESTIMATOR_H_
