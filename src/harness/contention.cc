#include "harness/contention.h"

#include <algorithm>

#include "buffer/lru_simulator.h"
#include "buffer/stack_distance_kernel.h"
#include "harness/experiment.h"
#include "util/random.h"

namespace epfis {

double ContentionResult::InflationFactor() const {
  if (total_solo == 0) return 1.0;
  return static_cast<double>(total_shared) /
         static_cast<double>(total_solo);
}

Result<ContentionResult> RunContentionExperiment(
    const Dataset& dataset, const std::vector<ScanRange>& scans,
    const ContentionConfig& config) {
  if (scans.empty()) {
    return Status::InvalidArgument("contention experiment needs scans");
  }
  if (config.buffer_pages == 0) {
    return Status::InvalidArgument("contention experiment needs a buffer");
  }
  const size_t m = scans.size();

  // Slice each stream's reference string from the index entries, and
  // take its solo baselines from one kernel pass.
  EPFIS_ASSIGN_OR_RETURN(std::vector<IndexEntry> entries,
                         dataset.IndexEntries());
  std::vector<std::vector<PageId>> traces(m);
  ContentionResult result;
  result.streams.resize(m);
  uint64_t share = std::max<uint64_t>(1, config.buffer_pages / m);
  for (size_t s = 0; s < m; ++s) {
    EPFIS_ASSIGN_OR_RETURN(traces[s],
                           SliceScanTrace(dataset, entries, scans[s].lo_key,
                                          scans[s].hi_key));
    StackDistanceKernel kernel(traces[s].size());
    kernel.AccessAll(traces[s]);
    result.streams[s].references = traces[s].size();
    result.streams[s].solo_fetches = kernel.Fetches(config.buffer_pages);
    result.streams[s].share_fetches = kernel.Fetches(share);
    result.total_solo += result.streams[s].solo_fetches;
    result.total_share_model += result.streams[s].share_fetches;
  }

  // Interleave into one shared LRU pool, attributing misses per stream.
  // Pages are namespaced per stream: different scans of the same table DO
  // share pages, so no namespacing — contention includes constructive
  // sharing, exactly as in a real pool.
  LruSimulator shared(config.buffer_pages);
  std::vector<size_t> cursor(m, 0);
  Rng rng(config.seed);
  size_t live = m;
  size_t next = 0;
  while (live > 0) {
    size_t s;
    if (config.mode == InterleaveMode::kRoundRobin) {
      while (cursor[next % m] >= traces[next % m].size()) ++next;
      s = next % m;
      ++next;
    } else {
      // Pick a random live stream, weighted uniformly.
      size_t pick = static_cast<size_t>(rng.NextBounded(live));
      s = 0;
      for (size_t i = 0, seen = 0; i < m; ++i) {
        if (cursor[i] < traces[i].size()) {
          if (seen == pick) {
            s = i;
            break;
          }
          ++seen;
        }
      }
    }
    if (shared.Access(traces[s][cursor[s]])) {
      ++result.streams[s].shared_fetches;
    }
    if (++cursor[s] == traces[s].size()) --live;
  }

  for (const StreamContention& stream : result.streams) {
    result.total_shared += stream.shared_fetches;
  }
  return result;
}

}  // namespace epfis
