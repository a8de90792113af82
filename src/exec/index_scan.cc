#include "exec/index_scan.h"

#include "index/btree_iterator.h"
#include "storage/slotted_page.h"
#include "util/flat_hash.h"

namespace epfis {
namespace {

/// Positions an iterator at the first entry satisfying the range's lower
/// bound.
Result<BTreeIterator> SeekToRangeStart(const BTree& index,
                                       const KeyRange& range) {
  if (!range.lo.has_value()) return index.Begin();
  return index.SeekGE(BTree::MinEntryForKey(range.EffectiveLo()));
}

}  // namespace

Result<IndexScanResult> RunIndexScan(const BTree& index,
                                     const TableHeap& heap,
                                     BufferPool* data_pool,
                                     const KeyRange& range,
                                     const SargableFilter* filter) {
  IndexScanResult result;
  uint64_t fetches_before = data_pool->stats().fetches;
  // Distinct data pages (the paper's A). FetchPage rejects kInvalidPageId,
  // the set's empty-slot key, so only fetched pages are ever inserted.
  FlatHashMap<PageId, bool, kInvalidPageId> accessed;

  EPFIS_ASSIGN_OR_RETURN(BTreeIterator it, SeekToRangeStart(index, range));
  int64_t hi = range.EffectiveHi();
  while (it.Valid() && it.entry().key <= hi) {
    const IndexEntry& entry = it.entry();
    ++result.entries_examined;
    if (filter == nullptr || filter->Keep(entry)) {
      ++result.records_fetched;
      EPFIS_ASSIGN_OR_RETURN(PageGuard guard,
                             data_pool->FetchPage(entry.rid.page_id));
      accessed.TryEmplace(entry.rid.page_id, true);
      SlottedPage page(const_cast<char*>(guard.data()));
      EPFIS_ASSIGN_OR_RETURN(std::string_view bytes, page.Get(entry.rid.slot));
      EPFIS_ASSIGN_OR_RETURN(
          int64_t key, Record::DeserializeValue(heap.schema(), bytes, 0));
      if (key != entry.key) {
        return Status::Corruption(
            "index entry key does not match stored record at rid " +
            entry.rid.ToString());
      }
    }
    EPFIS_RETURN_IF_ERROR(it.Next());
  }

  result.data_page_fetches = data_pool->stats().fetches - fetches_before;
  result.data_pages_accessed = accessed.size();
  return result;
}

Result<std::vector<PageId>> CollectScanTrace(const BTree& index,
                                             const KeyRange& range,
                                             const SargableFilter* filter) {
  std::vector<PageId> trace;
  EPFIS_ASSIGN_OR_RETURN(BTreeIterator it, SeekToRangeStart(index, range));
  int64_t hi = range.EffectiveHi();
  while (it.Valid() && it.entry().key <= hi) {
    if (filter == nullptr || filter->Keep(it.entry())) {
      trace.push_back(it.entry().rid.page_id);
    }
    EPFIS_RETURN_IF_ERROR(it.Next());
  }
  return trace;
}

}  // namespace epfis
