#ifndef EPFIS_STORAGE_TABLE_HEAP_H_
#define EPFIS_STORAGE_TABLE_HEAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "storage/record.h"
#include "storage/rid.h"
#include "storage/schema.h"
#include "util/result.h"

namespace epfis {

/// A heap of slotted pages holding fixed-width records for one table.
///
/// Besides the usual append (`Insert`), the heap exposes
/// `InsertIntoPage(ordinal, ...)`: the §5.2 synthetic-data generator places
/// each record on a *chosen* page within a sliding window, because record
/// placement relative to key order is precisely the clustering phenomenon
/// the paper models.
///
/// The page directory (ordinal -> PageId) is kept in memory; a production
/// system would chain directory pages, but directory I/O is not part of any
/// quantity the paper measures.
class TableHeap {
 public:
  /// Creates an empty heap writing through `pool`. If
  /// `max_records_per_page` is non-zero, inserts into a page stop at that
  /// count even if bytes remain — this pins down the paper's
  /// records-per-page parameter R exactly, independent of slot byte math.
  TableHeap(BufferPool* pool, Schema schema, std::string name = "table",
            uint32_t max_records_per_page = 0);

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }

  /// Number of data pages (the paper's T).
  uint32_t num_pages() const {
    return static_cast<uint32_t>(pages_.size());
  }

  /// Number of records inserted (the paper's N).
  uint64_t num_records() const { return num_records_; }

  /// PageId of the page with ordinal `i` (0-based, insertion order).
  Result<PageId> PageAt(uint32_t ordinal) const;

  /// Appends a fresh empty page and returns its ordinal.
  Result<uint32_t> AppendPage();

  /// Inserts at the first page with room, appending a page if needed.
  Result<Rid> Insert(const Record& record);

  /// Inserts into the page with the given ordinal; fails with
  /// ResourceExhausted if that page is full.
  Result<Rid> InsertIntoPage(uint32_t ordinal, const Record& record);

  /// Reads the record at `rid`.
  Result<Record> Get(const Rid& rid) const;

 private:
  BufferPool* pool_;
  Schema schema_;
  std::string name_;
  uint32_t max_records_per_page_;
  std::vector<PageId> pages_;
  uint64_t num_records_ = 0;
  uint32_t first_nonfull_ = 0;  // Ordinal hint for Insert().
};

}  // namespace epfis

#endif  // EPFIS_STORAGE_TABLE_HEAP_H_
