#include "catalog/catalog_snapshot.h"

#include <algorithm>
#include <utility>

namespace epfis {

namespace {

/// Backing store for snapshots built from in-memory catalog contents: the
/// owned IndexStats (whose PiecewiseLinear knot vectors the entry views
/// point into) plus the quarantine reasons.
struct HeapBacking {
  std::vector<IndexStats> stats;
  std::vector<std::pair<std::string, std::string>> quarantine;
};

}  // namespace

std::shared_ptr<const CatalogSnapshot> CatalogSnapshot::Build(
    std::map<std::string, IndexStats> entries,
    std::map<std::string, std::string> quarantined, uint64_t generation) {
  auto backing = std::make_shared<HeapBacking>();
  backing->stats.reserve(entries.size());
  for (auto& [name, stats] : entries) {
    backing->stats.push_back(std::move(stats));
  }
  backing->quarantine.assign(quarantined.begin(), quarantined.end());

  auto snapshot = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
  snapshot->generation_ = generation;
  snapshot->entries_.reserve(backing->stats.size() +
                             backing->quarantine.size());
  for (const IndexStats& stats : backing->stats) {
    Entry entry;
    entry.name = stats.index_name;
    entry.view = stats.View();
    entry.distinct_keys = stats.distinct_keys;
    entry.b_min = stats.b_min;
    entry.b_max = stats.b_max;
    entry.f_min = stats.f_min;
    entry.sample_rate = stats.sample_rate;
    entry.sampled_refs = stats.sampled_refs;
    entry.online_generation = stats.online_generation;
    entry.window_refs = stats.window_refs;
    entry.drift_error = stats.drift_error;
    snapshot->entries_.push_back(entry);
  }
  for (const auto& [name, reason] : backing->quarantine) {
    Entry entry;
    entry.name = name;
    entry.quarantined = true;
    entry.quarantine_reason = reason;
    snapshot->entries_.push_back(entry);
  }
  std::sort(snapshot->entries_.begin(), snapshot->entries_.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  snapshot->backing_ = std::move(backing);
  return snapshot;
}

std::shared_ptr<const CatalogSnapshot> CatalogSnapshot::Empty() {
  static const std::shared_ptr<const CatalogSnapshot> empty =
      Build({}, {}, 0);
  return empty;
}

CatalogSnapshot::Handle CatalogSnapshot::Resolve(
    std::string_view index_name) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index_name,
      [](const Entry& e, std::string_view name) { return e.name < name; });
  if (it == entries_.end() || it->name != index_name) return Handle{};
  return Handle{static_cast<uint32_t>(it - entries_.begin())};
}

Result<CatalogSnapshot::Handle> CatalogSnapshot::ResolveTrusted(
    std::string_view index_name) const {
  Handle handle = Resolve(index_name);
  if (!handle.valid()) {
    return Status::NotFound("no statistics for index " +
                            std::string(index_name));
  }
  const Entry& entry = entries_[handle.slot];
  if (entry.quarantined) {
    return Status::Corruption("statistics for index " +
                              std::string(index_name) + " are quarantined: " +
                              std::string(entry.quarantine_reason));
  }
  return handle;
}

Result<IndexStats> CatalogSnapshot::Get(std::string_view index_name) const {
  EPFIS_ASSIGN_OR_RETURN(Handle handle, ResolveTrusted(index_name));
  return Materialize(entries_[handle.slot]);
}

IndexStats CatalogSnapshot::Materialize(const Entry& entry) {
  IndexStats stats;
  stats.index_name = std::string(entry.name);
  stats.table_pages = entry.view.table_pages;
  stats.table_records = entry.view.table_records;
  stats.distinct_keys = entry.distinct_keys;
  stats.pages_accessed = entry.view.pages_accessed;
  stats.b_min = entry.b_min;
  stats.b_max = entry.b_max;
  stats.f_min = entry.f_min;
  stats.clustering = entry.view.clustering;
  stats.sample_rate = entry.sample_rate;
  stats.sampled_refs = entry.sampled_refs;
  stats.online_generation = entry.online_generation;
  stats.window_refs = entry.window_refs;
  stats.drift_error = entry.drift_error;
  if (entry.view.knot_count > 0) {
    std::vector<Knot> knots(entry.view.knots,
                            entry.view.knots + entry.view.knot_count);
    stats.fpf = PiecewiseLinear::FromKnots(std::move(knots)).value();
  }
  return stats;
}

bool CatalogSnapshot::IsQuarantined(std::string_view index_name) const {
  Handle handle = Resolve(index_name);
  return handle.valid() && entries_[handle.slot].quarantined;
}

std::vector<std::string> CatalogSnapshot::IndexNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.emplace_back(entry.name);
  return names;
}

}  // namespace epfis
