#ifndef EPFIS_CATALOG_CATALOG_SNAPSHOT_H_
#define EPFIS_CATALOG_CATALOG_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "epfis/index_stats.h"
#include "util/result.h"

namespace epfis {

/// An immutable, point-in-time view of the statistics catalog — the unit
/// the Est-IO serving layer reads.
///
/// ## Lock-free read contract
///
/// A snapshot is frozen at construction and never mutated afterwards, so
/// every const method is safe to call from any number of threads with no
/// synchronization whatsoever: there is nothing to lock. Readers obtain
/// one via StatsCatalog::snapshot(), which is a single atomic
/// shared_ptr load — an estimate thread therefore never contends with a
/// statistics refresh. A refresh builds a *new* snapshot off to the side
/// and publishes it with one atomic swap (StatsCatalog::Publish(), the
/// RCU write side); threads still holding the old snapshot keep reading
/// it unharmed, and the retired snapshot is reclaimed by shared_ptr
/// reference counting once the last reader drops it — epoch reclamation
/// with the epoch implicit in the reference count.
///
/// The entry payloads are *views*: the FPF knots live either in owned
/// IndexStats copies (snapshots built by Publish) or directly inside an
/// mmap'd catalog v3 file (snapshots opened by OpenCatalogSnapshotV3 in
/// catalog_v3.h — the zero-copy load path). The snapshot keeps that
/// backing alive, so a view returned by ViewAt is valid exactly as long
/// as the caller's shared_ptr to the snapshot.
class CatalogSnapshot {
 public:
  /// A pre-resolved reference to one index's entry in *this* snapshot.
  /// Resolving by name costs a binary search; batch callers do it once
  /// per index and then estimate through the handle. Handles are
  /// positional: they must not be used against a different snapshot.
  struct Handle {
    static constexpr uint32_t kInvalidSlot = 0xffffffffu;
    uint32_t slot = kInvalidSlot;

    bool valid() const { return slot != kInvalidSlot; }
  };

  /// One resolved entry: the estimator view plus the remaining catalog
  /// fields needed to materialize a full IndexStats.
  struct Entry {
    std::string_view name;
    IndexStatsView view;
    uint64_t distinct_keys = 0;
    uint64_t b_min = 0;
    uint64_t b_max = 0;
    uint64_t f_min = 0;
    double sample_rate = 1.0;
    uint64_t sampled_refs = 0;
    /// Online-mode provenance, carried so a snapshot Get materializes
    /// the same IndexStats the publisher put in (see index_stats.h).
    uint64_t online_generation = 0;
    uint64_t window_refs = 0;
    double drift_error = 0.0;
    /// Quarantined entries resolve (so provenance can say *why* the
    /// estimate degraded) but expose no trustworthy view.
    bool quarantined = false;
    std::string_view quarantine_reason;
  };

  /// Builds a snapshot that owns copies of `entries` (the Publish path).
  /// `generation` is a monotonically increasing publish counter carried
  /// for observability and coherence tests.
  static std::shared_ptr<const CatalogSnapshot> Build(
      std::map<std::string, IndexStats> entries,
      std::map<std::string, std::string> quarantined, uint64_t generation);

  /// The canonical empty snapshot (generation 0, no entries).
  static std::shared_ptr<const CatalogSnapshot> Empty();

  size_t size() const { return entries_.size(); }
  uint64_t generation() const { return generation_; }

  /// Resolves an index name to a handle, or an invalid handle when the
  /// snapshot has no entry (good or quarantined) under that name.
  Handle Resolve(std::string_view index_name) const;

  /// Resolves an index name to the handle of a trusted entry, failing as
  /// Get does: NotFound when absent, Corruption when quarantined.
  Result<Handle> ResolveTrusted(std::string_view index_name) const;

  /// Precondition: `handle` is valid and came from this snapshot.
  const Entry& EntryAt(Handle handle) const { return entries_[handle.slot]; }

  /// Precondition: valid handle to a non-quarantined entry.
  const IndexStatsView& ViewAt(Handle handle) const {
    return entries_[handle.slot].view;
  }

  /// Same contract as StatsCatalog::Get: NotFound when absent, Corruption
  /// when quarantined, otherwise a materialized copy of the entry.
  Result<IndexStats> Get(std::string_view index_name) const;

  /// The IndexStats a trusted entry stands for. Its knots already meet
  /// PiecewiseLinear::CheckKnots: Build takes them from curves, and
  /// CatalogV3::Read quarantines entries whose knots do not.
  static IndexStats Materialize(const Entry& entry);

  bool IsQuarantined(std::string_view index_name) const;

  /// Names of all entries (good and quarantined), sorted.
  std::vector<std::string> IndexNames() const;

  // Snapshots are built once and shared immutably.
  CatalogSnapshot(const CatalogSnapshot&) = delete;
  CatalogSnapshot& operator=(const CatalogSnapshot&) = delete;

 private:
  friend class CatalogV3Builder;  // catalog_v3.cc's mmap open path.
  CatalogSnapshot() = default;

  std::vector<Entry> entries_;  // Sorted by name.
  uint64_t generation_ = 0;
  /// Whatever the entry views point into (owned IndexStats vector, or an
  /// mmap'd file region); destroyed after entries_.
  std::shared_ptr<void> backing_;
};

}  // namespace epfis

#endif  // EPFIS_CATALOG_CATALOG_SNAPSHOT_H_
