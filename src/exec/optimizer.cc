#include "exec/optimizer.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string_view>

#include "exec/rid_list.h"

namespace epfis {

std::string AccessPlan::ToString() const {
  std::ostringstream os;
  if (type == Type::kTableScan) {
    os << "TableScan";
  } else if (type == Type::kRidListFetch) {
    os << "RidListFetch(" << index_name << ")";
  } else {
    os << "IndexScan(" << index_name << ")";
  }
  os << " fetches=" << estimated_fetches;
  if (sort_cost > 0.0) os << " +sort=" << sort_cost;
  os << " cost=" << total_cost;
  return os.str();
}

AccessPathOptimizer::AccessPathOptimizer(const Catalog* catalog,
                                         OptimizerOptions options)
    : catalog_(catalog), options_(options) {}

namespace {

// Extra page I/Os per sorted page: one write and one read of the run files.
constexpr double kSortIoFactor = 2.0;

// A costed plan as the enumerator hands it to a sink. The index name is a
// view into the catalog, so Choose copies only the name of the plan it
// keeps.
struct CostedPlan {
  AccessPlan::Type type = AccessPlan::Type::kTableScan;
  std::string_view index_name;
  double estimated_fetches = 0.0;
  double sort_cost = 0.0;
  double total_cost = 0.0;

  AccessPlan ToPlan() const {
    return AccessPlan{type, std::string(index_name), estimated_fetches,
                      sort_cost, total_cost};
  }
};

// The one plan enumerator behind EnumeratePlans and Choose. It costs every
// candidate against one published snapshot — no catalog mutex, no
// IndexStats copy — each index scan by EstIo::Estimate on the resolved
// entry's view (a missing or quarantined entry has already failed the call
// with ResolveTrusted's status, so there is nothing to degrade). It hands
// each plan to `sink` in a fixed order: the table scan, then per relevant
// index (name order) its index scan and RID variant, then the order-column
// full scans. The fixed order is what makes cost ties break the same way
// for both callers.
template <typename Sink>
Status ForEachPlan(const Catalog& catalog, const OptimizerOptions& options,
                   const Query& query, uint64_t buffer_pages, Sink&& sink) {
  EPFIS_ASSIGN_OR_RETURN(const TableInfo* table,
                         catalog.GetTable(query.table));
  std::shared_ptr<const CatalogSnapshot> snapshot =
      catalog.stats().snapshot();
  double table_pages = static_cast<double>(table->heap->num_pages());

  // Plan 1: table scan (+ sort if ordered output is required).
  CostedPlan table_scan;
  table_scan.type = AccessPlan::Type::kTableScan;
  table_scan.estimated_fetches = table_pages;
  table_scan.sort_cost =
      query.require_sorted ? kSortIoFactor * table_pages : 0.0;
  table_scan.total_cost = table_scan.estimated_fetches + table_scan.sort_cost;
  sink(table_scan);

  // One plan per relevant index (same column: usable for both the range
  // predicate and the sort order).
  for (const IndexInfo* index : table->indexes) {
    if (index->key_column != query.column) continue;
    // ResolveTrusted builds its NotFound or Corruption status only when
    // the entry is missing or quarantined: a Result on the success path
    // costs a measurable share of a Choose.
    CatalogSnapshot::Handle handle = snapshot->Resolve(index->name);
    if (!handle.valid() || snapshot->EntryAt(handle).quarantined) {
      return snapshot->ResolveTrusted(index->name).status();
    }
    double sigma = query.sigma;
    if (query.estimate_sigma) {
      EPFIS_ASSIGN_OR_RETURN(EquiDepthHistogram histogram,
                             catalog.GetHistogram(index->name));
      sigma = histogram.EstimateSelectivity(query.range);
    }
    ScanSpec scan;
    scan.sigma = sigma;
    scan.sargable_selectivity = query.sargable_selectivity;
    scan.buffer_pages = buffer_pages;

    CostedPlan plan;
    plan.type = AccessPlan::Type::kIndexScan;
    plan.index_name = index->name;
    EPFIS_ASSIGN_OR_RETURN(
        plan.estimated_fetches,
        EstIo::Estimate(snapshot->ViewAt(handle), scan, options.est_io));
    // Index order is the required order unless the query orders by a
    // different column, in which case this plan sorts its (selective)
    // output like the table scan does, scaled to the pages it produces.
    bool order_matches = !query.require_sorted ||
                         !query.order_column.has_value() ||
                         *query.order_column == query.column;
    plan.sort_cost =
        order_matches ? 0.0 : kSortIoFactor * plan.estimated_fetches;
    plan.total_cost = plan.estimated_fetches + plan.sort_cost;
    sink(plan);

    if (options.consider_rid_list) {
      // RID-sort variant: fetches are Yao's distinct-page count regardless
      // of the buffer, but the key order is destroyed, so ordered output
      // pays the external sort like a table scan does (scaled to the pages
      // actually produced).
      double n = static_cast<double>(snapshot->ViewAt(handle).table_records);
      double k = sigma * query.sargable_selectivity * n;
      CostedPlan rid_plan;
      rid_plan.type = AccessPlan::Type::kRidListFetch;
      rid_plan.index_name = index->name;
      rid_plan.estimated_fetches = EstimateRidFetchPages(n, table_pages, k);
      rid_plan.sort_cost = query.require_sorted
                               ? kSortIoFactor * rid_plan.estimated_fetches
                               : 0.0;
      rid_plan.total_cost = rid_plan.estimated_fetches + rid_plan.sort_cost;
      sink(rid_plan);
    }
  }

  // Plan shape 3 (§2): when the ORDER BY column differs from the predicate
  // column, a *full* scan of an index on the order column delivers sorted
  // output directly; the predicate is evaluated on fetched records, so the
  // whole index is scanned (sigma = 1) and nothing is sargable.
  if (query.require_sorted && query.order_column.has_value() &&
      *query.order_column != query.column) {
    for (const IndexInfo* index : table->indexes) {
      if (index->key_column != *query.order_column) continue;
      CatalogSnapshot::Handle handle = snapshot->Resolve(index->name);
      if (!handle.valid() || snapshot->EntryAt(handle).quarantined) {
        return snapshot->ResolveTrusted(index->name).status();
      }
      ScanSpec scan;
      scan.sigma = 1.0;
      scan.sargable_selectivity = 1.0;
      scan.buffer_pages = buffer_pages;
      CostedPlan plan;
      plan.type = AccessPlan::Type::kIndexScan;
      plan.index_name = index->name;
      EPFIS_ASSIGN_OR_RETURN(
          plan.estimated_fetches,
          EstIo::Estimate(snapshot->ViewAt(handle), scan, options.est_io));
      plan.sort_cost = 0.0;
      plan.total_cost = plan.estimated_fetches;
      sink(plan);
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<AccessPlan>> AccessPathOptimizer::EnumeratePlans(
    const Query& query, uint64_t buffer_pages) const {
  std::vector<AccessPlan> plans;
  EPFIS_RETURN_IF_ERROR(ForEachPlan(
      *catalog_, options_, query, buffer_pages,
      [&](const CostedPlan& plan) { plans.push_back(plan.ToPlan()); }));
  std::stable_sort(plans.begin(), plans.end(),
                   [](const AccessPlan& a, const AccessPlan& b) {
                     return a.total_cost < b.total_cost;
                   });
  return plans;
}

Result<AccessPlan> AccessPathOptimizer::Choose(const Query& query,
                                               uint64_t buffer_pages) const {
  // The first plan with the strictly lowest cost is exactly what
  // EnumeratePlans' stable sort puts in front.
  CostedPlan best;
  bool have_best = false;
  EPFIS_RETURN_IF_ERROR(ForEachPlan(
      *catalog_, options_, query, buffer_pages, [&](const CostedPlan& plan) {
        if (!have_best || plan.total_cost < best.total_cost) {
          best = plan;
          have_best = true;
        }
      }));
  return best.ToPlan();
}

}  // namespace epfis
