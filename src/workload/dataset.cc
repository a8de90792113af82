#include "workload/dataset.h"

#include <algorithm>

#include "index/btree_iterator.h"

namespace epfis {

Result<std::unique_ptr<Dataset>> Dataset::Create(
    std::string name, uint32_t records_per_page,
    std::vector<uint64_t> key_counts, uint64_t secondary_distinct) {
  if (key_counts.empty()) {
    return Status::InvalidArgument("dataset needs at least one key value");
  }
  uint64_t total = 0;
  for (uint64_t c : key_counts) {
    if (c == 0) {
      return Status::InvalidArgument(
          "every key value must have at least one record");
    }
    total += c;
  }

  auto dataset = std::unique_ptr<Dataset>(new Dataset());
  dataset->name_ = std::move(name);
  dataset->records_per_page_ = records_per_page;
  dataset->key_counts_ = std::move(key_counts);
  dataset->cum_counts_.resize(dataset->key_counts_.size());
  uint64_t acc = 0;
  for (size_t i = 0; i < dataset->key_counts_.size(); ++i) {
    acc += dataset->key_counts_[i];
    dataset->cum_counts_[i] = acc;
  }

  dataset->secondary_distinct_ = secondary_distinct;
  std::vector<Column> columns = {Column{"key"}};
  if (secondary_distinct > 0) columns.push_back(Column{"key2"});
  EPFIS_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::MakeWithRecordsPerPage(std::move(columns), records_per_page));

  dataset->data_disk_ = std::make_unique<DiskManager>();
  dataset->index_disk_ = std::make_unique<DiskManager>();
  // The generation-time data pool holds the whole table: placement writes
  // are random within a sliding window, and measurement never uses this
  // pool (traces and the kernel do), so favor generation speed.
  uint64_t estimated_pages = (total + records_per_page - 1) / records_per_page;
  dataset->data_pool_ = std::make_unique<BufferPool>(
      dataset->data_disk_.get(), static_cast<size_t>(estimated_pages) + 64);
  dataset->index_pool_ =
      std::make_unique<BufferPool>(dataset->index_disk_.get(), 256);
  dataset->table_ = std::make_unique<TableHeap>(
      dataset->data_pool_.get(), std::move(schema), dataset->name_,
      records_per_page);
  dataset->index_ = std::make_unique<BTree>(dataset->index_pool_.get(),
                                            dataset->name_ + ".idx");
  if (secondary_distinct > 0) {
    dataset->index2_ = std::make_unique<BTree>(dataset->index_pool_.get(),
                                               dataset->name_ + ".idx2");
  }
  return dataset;
}

uint64_t Dataset::SecondaryRecordsInRange(int64_t lo, int64_t hi) const {
  int64_t max_key = static_cast<int64_t>(secondary_counts_.size());
  lo = std::max<int64_t>(lo, 1);
  hi = std::min<int64_t>(hi, max_key);
  uint64_t total = 0;
  for (int64_t v = lo; v <= hi; ++v) {
    total += secondary_counts_[static_cast<size_t>(v) - 1];
  }
  return total;
}

uint64_t Dataset::RecordsInRange(int64_t lo, int64_t hi) const {
  int64_t max_key = static_cast<int64_t>(key_counts_.size());
  lo = std::max<int64_t>(lo, 1);
  hi = std::min<int64_t>(hi, max_key);
  if (lo > hi) return 0;
  uint64_t below = (lo >= 2) ? cum_counts_[static_cast<size_t>(lo) - 2] : 0;
  return cum_counts_[static_cast<size_t>(hi) - 1] - below;
}

std::unique_ptr<BufferPool> Dataset::MakeDataPool(size_t pages) const {
  return std::make_unique<BufferPool>(data_disk_.get(), pages);
}

Result<std::vector<PageId>> Dataset::FullIndexPageTrace() const {
  std::vector<PageId> trace;
  trace.reserve(index_->num_entries());
  EPFIS_ASSIGN_OR_RETURN(BTreeIterator it, index_->Begin());
  while (it.Valid()) {
    trace.push_back(it.entry().rid.page_id);
    EPFIS_RETURN_IF_ERROR(it.Next());
  }
  return trace;
}

Result<std::vector<IndexEntry>> Dataset::IndexEntries() const {
  std::vector<IndexEntry> entries;
  entries.reserve(index_->num_entries());
  EPFIS_ASSIGN_OR_RETURN(BTreeIterator it, index_->Begin());
  while (it.Valid()) {
    entries.push_back(it.entry());
    EPFIS_RETURN_IF_ERROR(it.Next());
  }
  return entries;
}

}  // namespace epfis
