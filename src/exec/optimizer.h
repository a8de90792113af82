#ifndef EPFIS_EXEC_OPTIMIZER_H_
#define EPFIS_EXEC_OPTIMIZER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "epfis/est_io.h"
#include "exec/predicate.h"
#include "util/result.h"

namespace epfis {

/// A query the access-path optimizer can cost: a single-table selection
/// with starting/stopping conditions on one column, optional sargable
/// predicates, and an optional ORDER BY on the predicate column.
struct Query {
  std::string table;
  size_t column = 0;
  KeyRange range;
  /// Selectivity of `range`. Either supplied directly (the paper's
  /// setting: selectivity estimation is out of scope), or — when
  /// `estimate_sigma` is set — derived from the relevant index's
  /// equi-depth histogram in the catalog.
  double sigma = 1.0;
  bool estimate_sigma = false;
  /// Combined selectivity of index-sargable predicates (1 = none).
  double sargable_selectivity = 1.0;
  /// Results must be ordered (by `order_column` if set, else by `column`).
  bool require_sorted = false;
  /// ORDER BY column when it differs from the predicate column — enables
  /// the paper's third plan shape (§2): "Use a full scan on a relevant
  /// index to obtain the desired sort order, and evaluate the predicates
  /// on the resulting set of records."
  std::optional<size_t> order_column;
};

/// One costed access plan (§2 lists the candidate set: a table scan plus
/// one plan per relevant index).
struct AccessPlan {
  enum class Type {
    kTableScan,
    kIndexScan,
    /// §6 extension (opt-in): scan the index for RIDs, sort them
    /// physically, then fetch — page fetches become buffer-independent at
    /// the price of losing key order (a sort is charged when the query
    /// requires ordered output).
    kRidListFetch,
  };

  Type type = Type::kTableScan;
  std::string index_name;          ///< For index scans.
  double estimated_fetches = 0.0;  ///< Data-page fetches.
  double sort_cost = 0.0;          ///< Extra I/O if a sort is needed.
  double total_cost = 0.0;         ///< estimated_fetches + sort_cost.

  std::string ToString() const;
};

/// Cost model knobs. A plan that must sort its output pays 2 extra page
/// I/Os per page it produces (write + read of run files); index scans on
/// the ordering column need no sort.
struct OptimizerOptions {
  /// Consider RID-sort plans. Off by default: §2 of the paper explicitly
  /// assumes "no RID-list sort, union, or intersection before the data
  /// records are fetched"; turning this on enables the §6 extension.
  bool consider_rid_list = false;
  EstIoOptions est_io;
};

/// Chooses among table scan and relevant index scans using EPFIS estimates
/// from the statistics catalog — the paper's motivating use case ("to
/// choose a good access plan involving an index, it is crucial to
/// accurately estimate the number of page fetches").
///
/// Plans are costed against the catalog's last *published* snapshot
/// (StatsCatalog::Publish), one snapshot per call: a Put that has not been
/// published yet is invisible here. Planning takes no catalog mutex and
/// copies no statistics, so it is safe beside a concurrent publisher.
class AccessPathOptimizer {
 public:
  explicit AccessPathOptimizer(const Catalog* catalog,
                               OptimizerOptions options = {});

  /// All candidate plans, costed, cheapest first (stable among equal
  /// costs). Fails if the table is unknown (NotFound), if a relevant index
  /// lacks published statistics (NotFound) or its published statistics
  /// are quarantined (Corruption), or if Est-IO rejects an index scan's
  /// spec or `est_io` (InvalidArgument).
  Result<std::vector<AccessPlan>> EnumeratePlans(const Query& query,
                                                 uint64_t buffer_pages) const;

  /// The cheapest plan: EnumeratePlans' front, with the same failures.
  Result<AccessPlan> Choose(const Query& query, uint64_t buffer_pages) const;

 private:
  const Catalog* catalog_;
  OptimizerOptions options_;
};

}  // namespace epfis

#endif  // EPFIS_EXEC_OPTIMIZER_H_
