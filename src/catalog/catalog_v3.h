#ifndef EPFIS_CATALOG_CATALOG_V3_H_
#define EPFIS_CATALOG_CATALOG_V3_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog_snapshot.h"
#include "epfis/index_stats.h"
#include "util/result.h"

namespace epfis {

/// The binary, mmap-able stats-catalog format (v3): the one on-disk form
/// of the statistics catalog.
///
/// Layout (all integers and doubles little-endian, offsets absolute):
///
///   [ 64 B header   ] magic "EPFSCAT3", version, endian tag, entry count,
///                     index-table offset, file size, CRC32C of the header
///   [ index table   ] one 40 B record per entry: name offset/size, knot
///                     count, offsets of the packed fixed fields and the
///                     knot array, CRC32C of the entry's payload bytes
///   [ entry payloads] per entry: 104 B packed fixed fields (the uint64
///                     shape counters + clustering + sampling and
///                     online-mode provenance),
///                     then the FPF knots as (double x, double y) pairs,
///                     all 8-byte aligned so a mapped file can be read in
///                     place
///   [ name heap     ] raw index-name bytes
///
/// Integrity: one CRC32C per entry (covering its fixed fields, knots, and
/// name) plus a header CRC, so torn writes and bit rot are detected and a
/// recovering load can quarantine just the bad entries. The 8-byte
/// alignment of the knot arrays is what makes the zero-copy load legal:
/// OpenCatalogSnapshotV3 maps the file and hands out IndexStatsView
/// entries whose knot pointers aim straight into the mapping — no copy,
/// O(file size) page-cache warmup only.
struct CatalogV3 {
  static constexpr char kMagic[8] = {'E', 'P', 'F', 'S', 'C', 'A', 'T', '3'};
  static constexpr uint32_t kVersion = 3;

  /// Serializes catalog entries to the v3 byte image.
  static std::string Encode(const std::map<std::string, IndexStats>& entries);

  /// An image's entries after validation, sorted by name. They are views:
  /// names and knots point into the image, quarantine reasons into
  /// `reasons`, so both must outlive them (moving a Contents keeps the
  /// views valid).
  struct Contents {
    std::vector<CatalogSnapshot::Entry> entries;
    std::vector<std::string> reasons;
    size_t checksum_failures = 0;
  };

  /// The one v3 reader, behind every load and the snapshot open. Fails
  /// with Corruption when the image is not structurally a v3 catalog: bad
  /// magic (text catalogs included), header, bounds or alignment, or an
  /// index name that appears twice. An entry is trusted when its CRC
  /// matches, its name is non-empty, and it has no knots or knots that
  /// pass PiecewiseLinear::CheckKnots; any other entry comes back
  /// quarantined with its reason. `data` must be 8-byte aligned (a
  /// mapping or a heap buffer is).
  static Result<Contents> Read(const char* data, size_t size);
};

/// Zero-copy serving load: maps `path`, reads it with CatalogV3::Read, and
/// returns a CatalogSnapshot of those entries whose FPF knot views point
/// directly into the mapping (kept alive by the snapshot). Uses the
/// catalog.load.* fault points.
Result<std::shared_ptr<const CatalogSnapshot>> OpenCatalogSnapshotV3(
    const std::string& path, uint64_t generation = 0);

}  // namespace epfis

#endif  // EPFIS_CATALOG_CATALOG_V3_H_
