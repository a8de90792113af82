#ifndef EPFIS_EXEC_INDEX_SCAN_H_
#define EPFIS_EXEC_INDEX_SCAN_H_

#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "exec/predicate.h"
#include "index/btree.h"
#include "storage/table_heap.h"
#include "util/result.h"

namespace epfis {

/// Outcome of a physical index scan.
struct IndexScanResult {
  uint64_t entries_examined = 0;   ///< Index entries in the key range.
  uint64_t records_fetched = 0;    ///< Entries surviving sargable filter.
  uint64_t data_page_fetches = 0;  ///< The paper's F (measured).
  uint64_t data_pages_accessed = 0;  ///< The paper's A (distinct pages).
};

/// Executes a partial index scan: iterates index entries within `range` in
/// key order, applies the optional sargable `filter`, and fetches each
/// surviving record's data page through `data_pool` (an LRU pool of the
/// buffer size under test), checking that the stored record's key matches
/// its index entry (Corruption otherwise). The measured
/// `data_page_fetches` is the ground-truth F that every estimator in this
/// repository is judged against.
Result<IndexScanResult> RunIndexScan(const BTree& index,
                                     const TableHeap& heap,
                                     BufferPool* data_pool,
                                     const KeyRange& range,
                                     const SargableFilter* filter = nullptr);

/// Collects just the data-page reference string of the scan without
/// touching the data pool at all: a walk of the tree, the oracle that the
/// harnesses' slices of the key-ordered entries (SliceScanTrace) are
/// tested against.
Result<std::vector<PageId>> CollectScanTrace(
    const BTree& index, const KeyRange& range,
    const SargableFilter* filter = nullptr);

}  // namespace epfis

#endif  // EPFIS_EXEC_INDEX_SCAN_H_
