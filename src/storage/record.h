#ifndef EPFIS_STORAGE_RECORD_H_
#define EPFIS_STORAGE_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/schema.h"
#include "util/result.h"

namespace epfis {

/// A materialized record: one int64 value per schema column.
class Record {
 public:
  Record() = default;
  explicit Record(std::vector<int64_t> values) : values_(std::move(values)) {}

  const std::vector<int64_t>& values() const { return values_; }
  int64_t value(size_t column) const { return values_[column]; }
  size_t num_values() const { return values_.size(); }

  /// Serializes per `schema` (fields little-endian, zero padding).
  /// Fails if the value count does not match the schema.
  Result<std::string> Serialize(const Schema& schema) const;

  /// Parses a serialized record. Fails on size mismatch.
  static Result<Record> Deserialize(const Schema& schema,
                                    std::string_view data);

  /// Reads only `column` of a serialized record, without materializing a
  /// Record. Runs Deserialize's size check and fails with the same
  /// Corruption status. Precondition: column < schema.num_columns().
  static Result<int64_t> DeserializeValue(const Schema& schema,
                                          std::string_view data,
                                          size_t column);

  friend bool operator==(const Record& a, const Record& b) {
    return a.values_ == b.values_;
  }

 private:
  std::vector<int64_t> values_;
};

}  // namespace epfis

#endif  // EPFIS_STORAGE_RECORD_H_
