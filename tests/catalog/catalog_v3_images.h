// v3 catalog images the writer never produces, built by editing the bytes
// of a written one: the repeated-name and bad-knot cases that the tests
// and the fuzz seed corpus both need. Offsets follow the layout in
// catalog/catalog_v3.h: a 64-byte header, then one 40-byte index record
// per entry.
#ifndef EPFIS_TESTS_CATALOG_CATALOG_V3_IMAGES_H_
#define EPFIS_TESTS_CATALOG_CATALOG_V3_IMAGES_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "catalog/catalog_v3.h"
#include "util/crc32c.h"

namespace epfis {

// The fields of one index record that the edits below need.
struct V3Record {
  uint64_t name_offset;
  uint32_t name_size;
  uint32_t knot_count;
  uint64_t fixed_offset;
  uint64_t knots_offset;
};

inline size_t V3RecordOffset(size_t entry) { return 64 + 40 * entry; }

inline V3Record ReadV3Record(const std::string& image, size_t entry) {
  V3Record record;
  std::memcpy(&record, image.data() + V3RecordOffset(entry), sizeof(record));
  return record;
}

// Recomputes an entry's CRC after an edit, so that only the edit tells
// the image apart from a written one.
inline void ResealV3Entry(std::string* image, size_t entry) {
  V3Record record = ReadV3Record(*image, entry);
  const char* data = image->data();
  uint32_t crc = Crc32c(data + record.fixed_offset, 104);
  crc = Crc32c(data + record.knots_offset, record.knot_count * sizeof(Knot),
               crc);
  crc = Crc32c(data + record.name_offset, record.name_size, crc);
  std::memcpy(image->data() + V3RecordOffset(entry) + 32, &crc, sizeof(crc));
}

// `first` then `second` under the one name "aa". With `reseal` both copies
// pass their CRC; without it the second fails its CRC.
inline std::string RepeatedNameV3Image(IndexStats first, IndexStats second,
                                       bool reseal) {
  first.index_name = "aa";
  second.index_name = "ab";
  std::map<std::string, IndexStats> entries;
  entries.emplace("aa", std::move(first));
  entries.emplace("ab", std::move(second));
  std::string image = CatalogV3::Encode(entries);
  image[ReadV3Record(image, 1).name_offset + 1] = 'a';
  if (reseal) ResealV3Entry(&image, 1);
  return image;
}

// `stats` (at least 2 knots) with its first knot's x moved past the
// second's, resealed so that only the knot rule can catch it.
inline std::string DecreasingKnotsV3Image(IndexStats stats) {
  std::map<std::string, IndexStats> entries;
  entries.emplace(stats.index_name, std::move(stats));
  std::string image = CatalogV3::Encode(entries);
  V3Record record = ReadV3Record(image, 0);
  Knot first, second;
  std::memcpy(&first, image.data() + record.knots_offset, sizeof(Knot));
  std::memcpy(&second, image.data() + record.knots_offset + sizeof(Knot),
              sizeof(Knot));
  first.x = second.x + 1.0;
  std::memcpy(image.data() + record.knots_offset, &first, sizeof(Knot));
  ResealV3Entry(&image, 0);
  return image;
}

}  // namespace epfis

#endif  // EPFIS_TESTS_CATALOG_CATALOG_V3_IMAGES_H_
