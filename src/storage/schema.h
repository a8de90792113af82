#ifndef EPFIS_STORAGE_SCHEMA_H_
#define EPFIS_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace epfis {

/// Column descriptor. The estimation experiments only need integer-valued
/// key columns, so the type system is intentionally small; what matters for
/// the paper is record *placement*, not record content.
struct Column {
  std::string name;
};

/// Fixed-width record schema: `columns.size()` int64 fields serialized
/// little-endian, padded to `record_size` bytes. The padding lets workload
/// generators hit an exact records-per-page ratio (the paper's R parameter)
/// without fake columns.
class Schema {
 public:
  /// Creates a schema; `record_size` of 0 means "exactly the field bytes".
  /// Fails if record_size is non-zero but smaller than the field bytes, or
  /// if there are no columns.
  static Result<Schema> Make(std::vector<Column> columns,
                             uint16_t record_size = 0);

  /// Convenience: schema sized so that exactly `records_per_page` records
  /// fit on one slotted page (given per-record slot overhead). Fails if the
  /// requested density is impossible.
  static Result<Schema> MakeWithRecordsPerPage(std::vector<Column> columns,
                                               uint32_t records_per_page);

  const std::vector<Column>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Serialized record size in bytes (fields + padding).
  uint16_t record_size() const { return record_size_; }

 private:
  Schema(std::vector<Column> columns, uint16_t record_size)
      : columns_(std::move(columns)), record_size_(record_size) {}

  std::vector<Column> columns_;
  uint16_t record_size_;
};

}  // namespace epfis

#endif  // EPFIS_STORAGE_SCHEMA_H_
