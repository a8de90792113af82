#include "exec/table_scan.h"

#include "storage/slotted_page.h"

namespace epfis {

Result<TableScanResult> RunTableScan(const TableHeap& heap, BufferPool* pool,
                                     const KeyRange& range,
                                     size_t key_column) {
  if (key_column >= heap.schema().num_columns()) {
    return Status::InvalidArgument("table scan: key column out of range");
  }
  TableScanResult result;
  uint64_t fetches_before = pool->stats().fetches;
  for (uint32_t ordinal = 0; ordinal < heap.num_pages(); ++ordinal) {
    EPFIS_ASSIGN_OR_RETURN(PageId pid, heap.PageAt(ordinal));
    EPFIS_ASSIGN_OR_RETURN(PageGuard guard, pool->FetchPage(pid));
    SlottedPage page(const_cast<char*>(guard.data()));
    uint16_t slots = page.num_slots();
    for (uint16_t slot = 0; slot < slots; ++slot) {
      EPFIS_ASSIGN_OR_RETURN(std::string_view bytes, page.Get(slot));
      EPFIS_ASSIGN_OR_RETURN(
          int64_t key,
          Record::DeserializeValue(heap.schema(), bytes, key_column));
      ++result.records_scanned;
      if (range.Contains(key)) {
        ++result.records_qualifying;
      }
    }
  }
  result.pages_fetched = pool->stats().fetches - fetches_before;
  return result;
}

}  // namespace epfis
