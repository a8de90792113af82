#include "catalog/catalog_v3.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "util/crc32c.h"
#include "util/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define EPFIS_CATALOG_V3_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <fstream>
#include <sstream>
#endif

namespace epfis {
namespace {

// On-disk structures. The format is defined as little-endian; this
// implementation reads and writes host-endian and rejects foreign files
// via the endian tag, which on every supported target (x86-64, AArch64)
// makes host order and file order the same thing.
constexpr uint32_t kEndianTag = 0x0a0b0c0d;
// kEndianTag as an opposite-endianness host would have written it: seeing
// this exact value means the file is a structurally sound v3 catalog from
// a foreign-order machine, not random damage.
constexpr uint32_t kEndianTagSwapped = 0x0d0c0b0a;

struct HeaderV3 {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t entry_count;
  uint64_t index_offset;
  uint64_t file_size;
  uint64_t reserved0;
  uint64_t reserved1;
  uint32_t reserved2;
  uint32_t header_crc;  // CRC32C of the preceding 60 bytes.
};
static_assert(sizeof(HeaderV3) == 64, "v3 header is 64 bytes");

struct IndexRecordV3 {
  uint64_t name_offset;
  uint32_t name_size;
  uint32_t knot_count;
  uint64_t fixed_offset;
  uint64_t knots_offset;
  uint32_t entry_crc;  // CRC32C of fixed ++ knots ++ name bytes.
  uint32_t reserved;
};
static_assert(sizeof(IndexRecordV3) == 40, "v3 index record is 40 bytes");

struct EntryFixedV3 {
  uint64_t table_pages;
  uint64_t table_records;
  uint64_t distinct_keys;
  uint64_t pages_accessed;
  uint64_t b_min;
  uint64_t b_max;
  uint64_t f_min;
  uint64_t sampled_refs;
  double clustering;
  double sample_rate;
  // Online-mode provenance (trailing so the first 80 bytes keep the
  // pre-online layout). A pre-extension v3 image read by this reader
  // fails its per-entry CRC — the growth is detected, never silently
  // misread.
  uint64_t online_generation;
  uint64_t window_refs;
  double drift_error;
};
static_assert(sizeof(EntryFixedV3) == 104, "v3 fixed fields are 104 bytes");

// The zero-copy path reinterprets the mapped knot region as Knot[]; that
// is only sound while Knot stays a trivially-copyable (x, y) double pair
// with no padding.
static_assert(sizeof(Knot) == 16 && alignof(Knot) == 8,
              "Knot must stay an 8-aligned (double x, double y) pair");
static_assert(std::is_trivially_copyable_v<Knot>,
              "Knot must stay trivially copyable");

void AppendBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

uint32_t EntryCrc(const EntryFixedV3& fixed, const char* knot_bytes,
                  size_t knot_size, std::string_view name) {
  uint32_t crc = Crc32c(&fixed, sizeof(fixed));
  crc = Crc32c(knot_bytes, knot_size, crc);
  return Crc32c(name.data(), name.size(), crc);
}

}  // namespace

Result<CatalogV3::Contents> CatalogV3::Read(const char* data, size_t size) {
  auto corrupt = [](const std::string& what) {
    return Status::Corruption("stats catalog v3: " + what);
  };
  // The magic before the size: a short text file gets the same answer as
  // a long one.
  if (size < sizeof(kMagic) ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return corrupt(
        "not a v3 catalog (bad magic); text catalogs are no longer read, "
        "so collect the statistics again");
  }
  if (reinterpret_cast<uintptr_t>(data) % alignof(Knot) != 0) {
    return Status::InvalidArgument("stats catalog v3: image not 8-aligned");
  }
  if (size < sizeof(HeaderV3)) return corrupt("truncated header");
  HeaderV3 header;
  std::memcpy(&header, data, sizeof(header));
  // Endian before version: the magic is a byte string and survives a
  // foreign-order writer, but every multi-byte field after it — version
  // included — arrives byte-swapped. Checking the version first would
  // report a cross-endian file as "unsupported version 50331648"; the
  // tag (and its exact byte-swapped image) names the real problem.
  if (header.endian != kEndianTag) {
    if (header.endian == kEndianTagSwapped) {
      return corrupt(
          "foreign byte order (file written on an opposite-endianness "
          "host)");
    }
    return corrupt("foreign byte order (endian tag damaged)");
  }
  if (header.version != kVersion) {
    return corrupt("unsupported version " + std::to_string(header.version));
  }
  if (Crc32c(data, sizeof(HeaderV3) - sizeof(uint32_t)) !=
      header.header_crc) {
    return corrupt("header checksum mismatch");
  }
  if (header.file_size != size) {
    return corrupt("file size mismatch (torn write?)");
  }
  uint64_t table_bytes;
  if (__builtin_mul_overflow(header.entry_count, sizeof(IndexRecordV3),
                             &table_bytes) ||
      header.index_offset > size || table_bytes > size - header.index_offset) {
    return corrupt("index table out of bounds");
  }

  auto in_bounds = [size](uint64_t offset, uint64_t length) {
    return offset <= size && length <= size - offset;
  };
  Contents contents;
  contents.entries.reserve(header.entry_count);
  // Reserved up front so the entries' reason views never move.
  contents.reasons.reserve(header.entry_count);
  for (uint64_t i = 0; i < header.entry_count; ++i) {
    IndexRecordV3 record;
    std::memcpy(&record, data + header.index_offset + i * sizeof(record),
                sizeof(record));
    uint64_t knot_bytes = uint64_t{record.knot_count} * sizeof(Knot);
    if (!in_bounds(record.fixed_offset, sizeof(EntryFixedV3)) ||
        !in_bounds(record.knots_offset, knot_bytes) ||
        !in_bounds(record.name_offset, record.name_size) ||
        record.fixed_offset % 8 != 0 || record.knots_offset % 8 != 0) {
      return corrupt("entry " + std::to_string(i + 1) + " out of bounds");
    }
    CatalogSnapshot::Entry entry;
    entry.name = std::string_view(data + record.name_offset,
                                  record.name_size);
    EntryFixedV3 fixed;
    std::memcpy(&fixed, data + record.fixed_offset, sizeof(fixed));
    // The zero-copy read: the bounds and alignment checks above make the
    // knot bytes a Knot array in place.
    std::span<const Knot> knots(
        reinterpret_cast<const Knot*>(data + record.knots_offset),
        record.knot_count);
    std::string problem;
    if (EntryCrc(fixed, data + record.knots_offset, knot_bytes,
                 entry.name) != record.entry_crc) {
      problem = "checksum mismatch";
      ++contents.checksum_failures;
    } else if (entry.name.empty()) {
      problem = "empty name";
    } else if (!knots.empty()) {
      Status curve = PiecewiseLinear::CheckKnots(knots);
      if (!curve.ok()) problem = curve.message();
    }
    if (!problem.empty()) {
      contents.reasons.push_back("stats catalog v3: entry " +
                                 std::to_string(i + 1) + ": " + problem);
      entry.quarantined = true;
      entry.quarantine_reason = contents.reasons.back();
      contents.entries.push_back(entry);
      continue;
    }
    entry.view.table_pages = fixed.table_pages;
    entry.view.table_records = fixed.table_records;
    entry.view.pages_accessed = fixed.pages_accessed;
    entry.view.clustering = fixed.clustering;
    if (!knots.empty()) {
      entry.view.knots = knots.data();
      entry.view.knot_count = record.knot_count;
    }
    entry.distinct_keys = fixed.distinct_keys;
    entry.b_min = fixed.b_min;
    entry.b_max = fixed.b_max;
    entry.f_min = fixed.f_min;
    entry.sample_rate = fixed.sample_rate;
    entry.sampled_refs = fixed.sampled_refs;
    entry.online_generation = fixed.online_generation;
    entry.window_refs = fixed.window_refs;
    entry.drift_error = fixed.drift_error;
    contents.entries.push_back(entry);
  }
  // Two entries under one name leave no way to tell which the writer
  // meant, whatever their checksums say: the image is corrupt as a whole.
  std::sort(contents.entries.begin(), contents.entries.end(),
            [](const CatalogSnapshot::Entry& a,
               const CatalogSnapshot::Entry& b) { return a.name < b.name; });
  auto repeated = std::adjacent_find(
      contents.entries.begin(), contents.entries.end(),
      [](const CatalogSnapshot::Entry& a, const CatalogSnapshot::Entry& b) {
        return a.name == b.name;
      });
  if (repeated != contents.entries.end()) {
    return corrupt("index name '" + std::string(repeated->name) +
                   "' appears twice");
  }
  return contents;
}

std::string CatalogV3::Encode(
    const std::map<std::string, IndexStats>& entries) {
  const size_t count = entries.size();
  const uint64_t index_offset = sizeof(HeaderV3);
  uint64_t payload_offset = index_offset + count * sizeof(IndexRecordV3);

  std::vector<IndexRecordV3> records;
  records.reserve(count);
  std::string payloads;
  std::string names;
  for (const auto& [name, stats] : entries) {
    IndexRecordV3 record{};
    EntryFixedV3 fixed{};
    fixed.table_pages = stats.table_pages;
    fixed.table_records = stats.table_records;
    fixed.distinct_keys = stats.distinct_keys;
    fixed.pages_accessed = stats.pages_accessed;
    fixed.b_min = stats.b_min;
    fixed.b_max = stats.b_max;
    fixed.f_min = stats.f_min;
    fixed.sampled_refs = stats.sampled_refs;
    fixed.clustering = stats.clustering;
    fixed.sample_rate = stats.sample_rate;
    fixed.online_generation = stats.online_generation;
    fixed.window_refs = stats.window_refs;
    fixed.drift_error = stats.drift_error;

    record.fixed_offset = payload_offset + payloads.size();
    AppendBytes(&payloads, &fixed, sizeof(fixed));
    record.knots_offset = payload_offset + payloads.size();
    size_t knot_bytes = 0;
    if (stats.fpf.has_value()) {
      const std::vector<Knot>& knots = stats.fpf->knots();
      record.knot_count = static_cast<uint32_t>(knots.size());
      knot_bytes = knots.size() * sizeof(Knot);
      AppendBytes(&payloads, knots.data(), knot_bytes);
    }
    record.name_size = static_cast<uint32_t>(name.size());
    record.entry_crc = EntryCrc(
        fixed, payloads.data() + (record.knots_offset - payload_offset),
        knot_bytes, name);
    // name_offset is patched below once the payload region's size is
    // final (names live after every payload).
    record.name_offset = names.size();
    names += name;
    records.push_back(record);
  }
  const uint64_t names_offset = payload_offset + payloads.size();
  for (IndexRecordV3& record : records) record.name_offset += names_offset;

  HeaderV3 header{};
  std::memcpy(header.magic, kMagic, 8);
  header.version = kVersion;
  header.endian = kEndianTag;
  header.entry_count = count;
  header.index_offset = index_offset;
  header.file_size = names_offset + names.size();
  header.header_crc =
      Crc32c(&header, sizeof(HeaderV3) - sizeof(uint32_t));

  std::string out;
  out.reserve(header.file_size);
  AppendBytes(&out, &header, sizeof(header));
  for (const IndexRecordV3& record : records) {
    AppendBytes(&out, &record, sizeof(record));
  }
  out += payloads;
  out += names;
  return out;
}

// ---------------------------------------------------------------------------
// Zero-copy snapshot open.

/// Named friend of CatalogSnapshot: assembles a snapshot around an
/// arbitrary backing object (here, the mmap region).
class CatalogV3Builder {
 public:
  static std::shared_ptr<const CatalogSnapshot> Make(
      std::vector<CatalogSnapshot::Entry> entries, uint64_t generation,
      std::shared_ptr<void> backing) {
    auto snapshot = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
    snapshot->entries_ = std::move(entries);
    snapshot->generation_ = generation;
    snapshot->backing_ = std::move(backing);
    return snapshot;
  }
};

namespace {

/// The owned backing of a mapped snapshot: the mapping itself plus the
/// quarantine reason strings (which cannot live in the file).
struct MmapBacking {
  const char* data = nullptr;
  size_t size = 0;
  std::vector<std::string> reasons;
#ifdef EPFIS_CATALOG_V3_MMAP
  ~MmapBacking() {
    if (data != nullptr) {
      ::munmap(const_cast<char*>(data), size);
    }
  }
#else
  std::string owned;  // Portable fallback: a heap copy instead of a map.
#endif
};

Result<std::shared_ptr<MmapBacking>> MapCatalogFile(const std::string& path) {
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.load.open"));
  auto backing = std::make_shared<MmapBacking>();
#ifdef EPFIS_CATALOG_V3_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + " for reading");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::Corruption("stats catalog v3: empty file");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps its own reference.
  if (map == MAP_FAILED) {
    return Status::IoError("cannot mmap " + path);
  }
  backing->data = static_cast<const char*>(map);
  backing->size = size;
#else
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open " + path + " for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read of " + path + " failed");
  backing->owned = buf.str();
  backing->data = backing->owned.data();
  backing->size = backing->owned.size();
#endif
  Status read_fault = FaultPoint("catalog.load.read");
  if (!read_fault.ok()) return read_fault;
  return backing;
}

}  // namespace

Result<std::shared_ptr<const CatalogSnapshot>> OpenCatalogSnapshotV3(
    const std::string& path, uint64_t generation) {
  EPFIS_ASSIGN_OR_RETURN(std::shared_ptr<MmapBacking> backing,
                         MapCatalogFile(path));
  EPFIS_ASSIGN_OR_RETURN(CatalogV3::Contents contents,
                         CatalogV3::Read(backing->data, backing->size));
  backing->reasons = std::move(contents.reasons);
  return CatalogV3Builder::Make(std::move(contents.entries), generation,
                                std::move(backing));
}

}  // namespace epfis
