#ifndef EPFIS_CATALOG_CATALOG_H_
#define EPFIS_CATALOG_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/histogram.h"
#include "catalog/stats_catalog.h"
#include "index/btree.h"
#include "storage/table_heap.h"
#include "util/result.h"

namespace epfis {

/// Registered index over one column of a table (non-owning).
struct IndexInfo {
  std::string name;
  std::string table;
  size_t key_column = 0;
  BTree* tree = nullptr;
};

/// Registered table (non-owning: the heap is owned by the Dataset or the
/// caller).
struct TableInfo {
  std::string name;
  TableHeap* heap = nullptr;
  /// The indexes defined on this table, in name order. The entries live
  /// in the owning Catalog, which never moves or drops them.
  std::vector<const IndexInfo*> indexes;
};

/// Minimal schema catalog: tables, the indexes defined on them, and their
/// statistics. This is what the access-path optimizer consults: "the number
/// of basic access plans to be considered is the number of relevant indexes
/// plus one" (§2).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status RegisterTable(const std::string& name, TableHeap* heap);
  Status RegisterIndex(const std::string& name, const std::string& table,
                       size_t key_column, BTree* tree);

  /// The table's entry, read in place (valid as long as the Catalog).
  /// Its `indexes` whose key column is the predicate column are the
  /// "relevant" indexes for a single-column range predicate.
  Result<const TableInfo*> GetTable(const std::string& name) const;
  Result<IndexInfo> GetIndex(const std::string& name) const;

  StatsCatalog& stats() { return stats_; }
  const StatsCatalog& stats() const { return stats_; }

  /// Attaches a value-distribution histogram to a registered index (the
  /// selectivity-estimation side of statistics collection).
  Status PutHistogram(const std::string& index_name,
                      EquiDepthHistogram histogram);

  /// Fails with NotFound if the index has no histogram.
  Result<EquiDepthHistogram> GetHistogram(const std::string& index_name) const;

 private:
  std::map<std::string, TableInfo> tables_;
  std::map<std::string, IndexInfo> indexes_;
  std::map<std::string, EquiDepthHistogram> histograms_;
  StatsCatalog stats_;
};

}  // namespace epfis

#endif  // EPFIS_CATALOG_CATALOG_H_
