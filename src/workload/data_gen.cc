#include "workload/data_gen.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"
#include "util/zipf.h"

namespace epfis {
namespace {

Status ValidateSpec(const SyntheticSpec& spec) {
  if (spec.num_records == 0) {
    return Status::InvalidArgument("num_records must be positive");
  }
  if (spec.num_distinct == 0 || spec.num_distinct > spec.num_records) {
    return Status::InvalidArgument(
        "num_distinct must be in [1, num_records]");
  }
  if (spec.records_per_page == 0) {
    return Status::InvalidArgument("records_per_page must be positive");
  }
  if (spec.window_fraction < 0.0 || spec.window_fraction > 1.0) {
    return Status::InvalidArgument("window_fraction must be in [0, 1]");
  }
  if (spec.noise < 0.0 || spec.noise >= 1.0) {
    return Status::InvalidArgument("noise must be in [0, 1)");
  }
  if (spec.theta < 0.0) {
    return Status::InvalidArgument("theta must be non-negative");
  }
  return Status::Ok();
}

}  // namespace

Result<Placement> GeneratePlacement(const SyntheticSpec& spec) {
  EPFIS_RETURN_IF_ERROR(ValidateSpec(spec));
  Rng rng(spec.seed);

  // Duplicate counts per distinct value: generalized Zipf(theta),
  // decorrelated from key order by a seeded random permutation.
  EPFIS_ASSIGN_OR_RETURN(ZipfDistribution zipf,
                         ZipfDistribution::Make(spec.num_distinct,
                                                spec.theta));
  std::vector<uint64_t> counts = zipf.ApportionCounts(spec.num_records);
  for (size_t i = counts.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.NextBounded(i));
    std::swap(counts[i - 1], counts[j]);
  }

  const uint64_t n = spec.num_records;
  const uint32_t r = spec.records_per_page;
  const uint32_t t = static_cast<uint32_t>((n + r - 1) / r);

  Placement placement;
  placement.num_pages = t;
  placement.key_counts = counts;
  placement.page_of_record.reserve(n);

  // Sliding window of page ordinals with remaining capacity. Pages are
  // removed when they fill; when a window page fills, the next not-yet-
  // windowed page is admitted (§5.2).
  std::vector<uint32_t> capacity(t, r);
  uint32_t window_size = static_cast<uint32_t>(
      std::ceil(spec.window_fraction * static_cast<double>(t)));
  window_size = std::clamp<uint32_t>(window_size, 1, t);

  std::vector<uint32_t> window;
  window.reserve(window_size + 1);
  for (uint32_t p = 0; p < window_size; ++p) window.push_back(p);
  uint32_t next_outside = window_size;

  auto admit_next_page = [&]() {
    while (next_outside < t && capacity[next_outside] == 0) ++next_outside;
    if (next_outside < t) window.push_back(next_outside++);
  };
  auto remove_window_slot = [&](size_t idx) {
    window[idx] = window.back();
    window.pop_back();
  };

  for (uint64_t key = 0; key < counts.size(); ++key) {
    for (uint64_t c = 0; c < counts[key]; ++c) {
      uint32_t page = UINT32_MAX;

      // Noise: escape the window with probability `noise` (if any page
      // beyond the window still has room).
      if (spec.noise > 0.0 && next_outside < t &&
          rng.NextBernoulli(spec.noise)) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          uint32_t p = next_outside + static_cast<uint32_t>(rng.NextBounded(
                                          t - next_outside));
          if (capacity[p] > 0) {
            page = p;
            break;
          }
        }
      }

      if (page == UINT32_MAX) {
        for (;;) {
          if (window.empty()) {
            admit_next_page();
            if (window.empty()) {
              return Status::Internal("placement ran out of page capacity");
            }
          }
          size_t idx = static_cast<size_t>(rng.NextBounded(window.size()));
          uint32_t p = window[idx];
          if (capacity[p] == 0) {
            remove_window_slot(idx);
            admit_next_page();
            continue;
          }
          page = p;
          --capacity[p];
          if (capacity[p] == 0) {
            remove_window_slot(idx);
            admit_next_page();
          }
          break;
        }
      } else {
        --capacity[page];
      }

      placement.page_of_record.push_back(page);
    }
  }
  return placement;
}

std::vector<PageId> PlacementTrace(const Placement& placement) {
  std::vector<PageId> trace;
  trace.reserve(placement.page_of_record.size());
  for (uint32_t p : placement.page_of_record) {
    trace.push_back(static_cast<PageId>(p));
  }
  return trace;
}

Result<std::unique_ptr<Dataset>> MaterializeDataset(
    const SyntheticSpec& spec, const Placement& placement) {
  EPFIS_ASSIGN_OR_RETURN(
      std::unique_ptr<Dataset> dataset,
      Dataset::Create(spec.name, spec.records_per_page, placement.key_counts,
                      spec.secondary_distinct));
  TableHeap* table = dataset->table();
  for (uint32_t p = 0; p < placement.num_pages; ++p) {
    EPFIS_ASSIGN_OR_RETURN(uint32_t ordinal, table->AppendPage());
    (void)ordinal;
  }

  const bool has_secondary = spec.secondary_distinct > 0;
  Rng secondary_rng(spec.seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<uint64_t> secondary_counts(spec.secondary_distinct, 0);

  std::vector<IndexEntry> entries;
  std::vector<IndexEntry> entries2;
  entries.reserve(placement.page_of_record.size());
  if (has_secondary) entries2.reserve(placement.page_of_record.size());
  size_t rec = 0;
  for (uint64_t key = 0; key < placement.key_counts.size(); ++key) {
    int64_t key_value = static_cast<int64_t>(key) + 1;
    for (uint64_t c = 0; c < placement.key_counts[key]; ++c, ++rec) {
      Record record =
          has_secondary
              ? Record({key_value,
                        1 + static_cast<int64_t>(secondary_rng.NextBounded(
                                spec.secondary_distinct))})
              : Record({key_value});
      EPFIS_ASSIGN_OR_RETURN(
          Rid rid, table->InsertIntoPage(placement.page_of_record[rec],
                                         record));
      entries.push_back(IndexEntry{key_value, rid});
      if (has_secondary) {
        int64_t key2 = record.value(1);
        entries2.push_back(IndexEntry{key2, rid});
        ++secondary_counts[static_cast<size_t>(key2) - 1];
      }
    }
  }
  EPFIS_RETURN_IF_ERROR(dataset->index()->BulkLoad(std::move(entries)));
  if (has_secondary) {
    EPFIS_RETURN_IF_ERROR(dataset->index2()->BulkLoad(std::move(entries2)));
    *dataset->mutable_secondary_counts() = std::move(secondary_counts);
  }
  // Persist to the simulated disks so scans through *fresh* buffer pools
  // (the measurement path) see the data.
  EPFIS_RETURN_IF_ERROR(dataset->data_pool()->FlushAll());
  EPFIS_RETURN_IF_ERROR(dataset->index_pool()->FlushAll());
  return dataset;
}

Result<std::unique_ptr<Dataset>> GenerateSynthetic(const SyntheticSpec& spec) {
  EPFIS_ASSIGN_OR_RETURN(Placement placement, GeneratePlacement(spec));
  return MaterializeDataset(spec, placement);
}

}  // namespace epfis
