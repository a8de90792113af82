#include "catalog/catalog.h"

#include <algorithm>

namespace epfis {

Status Catalog::RegisterTable(const std::string& name, TableHeap* heap) {
  if (heap == nullptr) {
    return Status::InvalidArgument("RegisterTable: null heap");
  }
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table " + name + " already registered");
  }
  tables_[name] = TableInfo{name, heap, {}};
  return Status::Ok();
}

Status Catalog::RegisterIndex(const std::string& name,
                              const std::string& table, size_t key_column,
                              BTree* tree) {
  if (tree == nullptr) {
    return Status::InvalidArgument("RegisterIndex: null tree");
  }
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) {
    return Status::NotFound("RegisterIndex: unknown table " + table);
  }
  if (key_column >= table_it->second.heap->schema().num_columns()) {
    return Status::InvalidArgument("RegisterIndex: column out of range");
  }
  auto [index, inserted] =
      indexes_.emplace(name, IndexInfo{name, table, key_column, tree});
  if (!inserted) {
    return Status::AlreadyExists("index " + name + " already registered");
  }
  std::vector<const IndexInfo*>& on_table = table_it->second.indexes;
  on_table.insert(std::upper_bound(on_table.begin(), on_table.end(), name,
                                   [](const std::string& n,
                                      const IndexInfo* info) {
                                     return n < info->name;
                                   }),
                  &index->second);
  return Status::Ok();
}

Result<const TableInfo*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("unknown table " + name);
  return &it->second;
}

Result<IndexInfo> Catalog::GetIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) return Status::NotFound("unknown index " + name);
  return it->second;
}

Status Catalog::PutHistogram(const std::string& index_name,
                             EquiDepthHistogram histogram) {
  if (indexes_.count(index_name) == 0) {
    return Status::NotFound("PutHistogram: unknown index " + index_name);
  }
  histograms_.insert_or_assign(index_name, std::move(histogram));
  return Status::Ok();
}

Result<EquiDepthHistogram> Catalog::GetHistogram(
    const std::string& index_name) const {
  auto it = histograms_.find(index_name);
  if (it == histograms_.end()) {
    return Status::NotFound("no histogram for index " + index_name);
  }
  return it->second;
}

}  // namespace epfis
