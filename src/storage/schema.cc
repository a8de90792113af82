#include "storage/schema.h"

#include "storage/page.h"

namespace epfis {
namespace {

// Per-page fixed header plus per-record slot overhead (see slotted_page.cc).
constexpr uint32_t kPageHeaderBytes = 4;
constexpr uint32_t kSlotBytes = 4;

}  // namespace

Result<Schema> Schema::Make(std::vector<Column> columns,
                            uint16_t record_size) {
  if (columns.empty()) {
    return Status::InvalidArgument("schema needs at least one column");
  }
  size_t field_bytes = columns.size() * sizeof(int64_t);
  if (field_bytes > UINT16_MAX) {
    return Status::InvalidArgument("too many columns");
  }
  if (record_size == 0) {
    record_size = static_cast<uint16_t>(field_bytes);
  } else if (record_size < field_bytes) {
    return Status::InvalidArgument(
        "record_size smaller than the serialized fields");
  }
  if (record_size + kSlotBytes + kPageHeaderBytes > kPageSize) {
    return Status::InvalidArgument("record does not fit on a page");
  }
  return Schema(std::move(columns), record_size);
}

Result<Schema> Schema::MakeWithRecordsPerPage(std::vector<Column> columns,
                                              uint32_t records_per_page) {
  if (records_per_page == 0) {
    return Status::InvalidArgument("records_per_page must be positive");
  }
  uint32_t usable = kPageSize - kPageHeaderBytes;
  uint32_t per_record = usable / records_per_page;
  if (per_record <= kSlotBytes) {
    return Status::InvalidArgument(
        "records_per_page too large for the page size");
  }
  uint32_t record_size = per_record - kSlotBytes;
  size_t field_bytes = columns.size() * sizeof(int64_t);
  if (record_size < field_bytes) {
    return Status::InvalidArgument(
        "records_per_page too large for the column count");
  }
  return Make(std::move(columns), static_cast<uint16_t>(record_size));
}

}  // namespace epfis
