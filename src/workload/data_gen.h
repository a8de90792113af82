#ifndef EPFIS_WORKLOAD_DATA_GEN_H_
#define EPFIS_WORKLOAD_DATA_GEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/dataset.h"

namespace epfis {

/// Parameters of the §5.2 synthetic data generator.
struct SyntheticSpec {
  std::string name = "synthetic";

  uint64_t num_records = 1'000'000;  ///< N (paper: 10^6).
  uint64_t num_distinct = 10'000;    ///< I (paper: 10^4).
  uint32_t records_per_page = 40;    ///< R (paper: 20, 40, 80).

  /// Generalized Zipf skew of duplicate counts (paper: 0 and 0.86).
  double theta = 0.0;

  /// Window-size parameter K: records of each successive key value are
  /// placed uniformly within a sliding window of ceil(K*T) pages
  /// (paper: 0, 0.05, 0.10, 0.20, 0.50, 1). K=0 degenerates to a one-page
  /// window, i.e. perfect clustering; K=1 is uniform random placement.
  double window_fraction = 0.0;

  /// Probability a record escapes the window entirely (paper: 5%).
  double noise = 0.05;

  /// When > 0, the table gets a second int64 column whose values are drawn
  /// uniformly from [1, secondary_distinct] independently of the primary
  /// key and of placement, plus a second B-tree index over it — the
  /// substrate for the §6 index-ANDing/ORing extension.
  uint64_t secondary_distinct = 0;

  uint64_t seed = 42;
};

/// In-memory placement plan: which data page (ordinal) each record landed
/// on, records listed in key order. Cheap to generate and sufficient to
/// compute traces and clustering factors without materializing a table —
/// the GWL calibration loop (gwl.cc) relies on this.
struct Placement {
  uint32_t num_pages = 0;  ///< T.
  std::vector<uint64_t> key_counts;
  std::vector<uint32_t> page_of_record;  ///< size N, key order.
};

/// Runs the §5.2 placement scheme (Wolf et al.-style sliding window with
/// noise) without touching storage.
Result<Placement> GeneratePlacement(const SyntheticSpec& spec);

/// The full-index-scan page reference string implied by a placement
/// (record order == key order, page ordinals as page ids).
std::vector<PageId> PlacementTrace(const Placement& placement);

/// Materializes a placement into a real Dataset: table pages, records, and
/// a bulk-loaded B-tree.
Result<std::unique_ptr<Dataset>> MaterializeDataset(
    const SyntheticSpec& spec, const Placement& placement);

/// GeneratePlacement + MaterializeDataset.
Result<std::unique_ptr<Dataset>> GenerateSynthetic(const SyntheticSpec& spec);

}  // namespace epfis

#endif  // EPFIS_WORKLOAD_DATA_GEN_H_
