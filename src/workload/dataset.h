#ifndef EPFIS_WORKLOAD_DATASET_H_
#define EPFIS_WORKLOAD_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "index/btree.h"
#include "index/index_entry.h"
#include "storage/disk_manager.h"
#include "storage/table_heap.h"
#include "util/result.h"

namespace epfis {

/// A fully materialized experimental database: one table (heap of slotted
/// pages) plus a B-tree index over its primary key column and, optionally,
/// a second index over an independent secondary column (used by the
/// index-ANDing/ORing extension, §6 of the paper).
///
/// Data pages and index pages live on *separate* simulated disks with
/// separate buffer pools: every quantity the paper reports counts data-page
/// fetches only, so index I/O must not leak into the measurements.
class Dataset {
 public:
  /// Builder used by the generators in data_gen/gwl. `key_counts[i]` is the
  /// number of records with key value i+1 (keys are dense 1..I). If
  /// `secondary_distinct` > 0 the schema has a second int64 column and a
  /// second (initially empty) index over it.
  static Result<std::unique_ptr<Dataset>> Create(
      std::string name, uint32_t records_per_page,
      std::vector<uint64_t> key_counts, uint64_t secondary_distinct = 0);

  const std::string& name() const { return name_; }
  uint64_t num_records() const { return table_->num_records(); }  ///< N.
  uint32_t num_pages() const { return table_->num_pages(); }      ///< T.
  uint64_t num_distinct() const { return key_counts_.size(); }    ///< I.
  uint32_t records_per_page() const { return records_per_page_; }

  // Accessors return non-const handles even on a const Dataset: reading
  // through the index or heap mutates buffer-pool caching state, which is
  // logically const with respect to the dataset's contents.
  TableHeap* table() const { return table_.get(); }
  BTree* index() const { return index_.get(); }
  /// Secondary-column index; null unless secondary_distinct > 0.
  BTree* index2() const { return index2_.get(); }
  BufferPool* data_pool() const { return data_pool_.get(); }
  BufferPool* index_pool() const { return index_pool_.get(); }
  DiskManager* data_disk() const { return data_disk_.get(); }

  /// Distinct values of the secondary column (0 = none).
  uint64_t num_secondary_distinct() const { return secondary_distinct_; }

  /// Records per secondary value, value order (filled at materialization).
  const std::vector<uint64_t>& secondary_counts() const {
    return secondary_counts_;
  }
  std::vector<uint64_t>* mutable_secondary_counts() {
    return &secondary_counts_;
  }

  /// Records with secondary value in [lo, hi] (clamped to the domain).
  uint64_t SecondaryRecordsInRange(int64_t lo, int64_t hi) const;

  /// Records per key value, key order (index 0 = key 1).
  const std::vector<uint64_t>& key_counts() const { return key_counts_; }

  /// cum_counts()[i] = total records with key <= i+1; back() == N.
  const std::vector<uint64_t>& cum_counts() const { return cum_counts_; }

  /// Number of records with key in [lo, hi] (keys clamped to the domain).
  uint64_t RecordsInRange(int64_t lo, int64_t hi) const;

  /// Creates an additional buffer pool of `pages` frames over the *data*
  /// disk — how the execution layer runs a scan under a chosen B.
  std::unique_ptr<BufferPool> MakeDataPool(size_t pages) const;

  /// Data-page id of every index entry in key order — the full-scan
  /// reference string LRU-Fit consumes.
  Result<std::vector<PageId>> FullIndexPageTrace() const;

  /// Every index entry in key order, from one walk of the B-tree. Keys
  /// are dense, so the entries with key in [lo, hi] are the
  /// RecordsInRange(lo, hi) entries starting at RecordsInRange(1, lo − 1):
  /// every range scan's reference string is a slice of this vector.
  Result<std::vector<IndexEntry>> IndexEntries() const;

 private:
  Dataset() = default;

  std::string name_;
  uint32_t records_per_page_ = 0;
  std::vector<uint64_t> key_counts_;
  std::vector<uint64_t> cum_counts_;
  uint64_t secondary_distinct_ = 0;
  std::vector<uint64_t> secondary_counts_;

  std::unique_ptr<DiskManager> data_disk_;
  std::unique_ptr<DiskManager> index_disk_;
  std::unique_ptr<BufferPool> data_pool_;
  std::unique_ptr<BufferPool> index_pool_;
  std::unique_ptr<TableHeap> table_;
  std::unique_ptr<BTree> index_;
  std::unique_ptr<BTree> index2_;
};

}  // namespace epfis

#endif  // EPFIS_WORKLOAD_DATASET_H_
