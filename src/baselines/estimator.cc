#include "baselines/estimator.h"

#include "buffer/lru_simulator.h"

namespace epfis {

Result<BaselineTraceStats> CollectBaselineTraceStats(
    const std::vector<IndexEntry>& entries, uint64_t table_pages) {
  if (entries.empty()) {
    return Status::InvalidArgument("baseline stats: empty index trace");
  }
  BaselineTraceStats stats;
  stats.table_pages = table_pages;
  stats.table_records = entries.size();

  LruSimulator one(1);
  LruSimulator three(3);

  // Per-key first/last page for DC's cluster counter.
  int64_t current_key = entries.front().key;
  PageId first_page = entries.front().rid.page_id;
  PageId last_page = first_page;
  PageId prev_key_last_page = 0;
  bool have_prev_key = false;

  auto close_key = [&]() {
    // CC increments when this key's first page is the same or a higher
    // page than the previous key's last page.
    if (!have_prev_key || first_page >= prev_key_last_page) {
      ++stats.cluster_counter;
    }
    prev_key_last_page = last_page;
    have_prev_key = true;
    ++stats.distinct_keys;
  };

  for (size_t i = 0; i < entries.size(); ++i) {
    const int64_t key = entries[i].key;
    const PageId page = entries[i].rid.page_id;
    if (i > 0 && key < entries[i - 1].key) {
      return Status::InvalidArgument(
          "baseline stats: trace not in key order");
    }
    if (key != current_key) {
      close_key();
      current_key = key;
      first_page = page;
    }
    last_page = page;
    one.Access(page);
    three.Access(page);
  }
  close_key();

  stats.j1 = one.fetches();
  stats.j3 = three.fetches();
  return stats;
}

}  // namespace epfis
