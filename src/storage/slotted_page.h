#ifndef EPFIS_STORAGE_SLOTTED_PAGE_H_
#define EPFIS_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <string_view>

#include "storage/page.h"
#include "util/result.h"

namespace epfis {

/// Non-owning view over one kPageSize buffer laid out as a slotted data
/// page:
///
///   [num_slots:u16][free_end:u16][slot 0][slot 1]... ...record data]
///   slot = [offset:u16][length:u16]        (length >= 1)
///
/// Records grow downward from the end of the page; the slot array grows
/// upward after the 4-byte header. The view does not own the buffer; the
/// caller (TableHeap via BufferPool) is responsible for its lifetime.
class SlottedPage {
 public:
  /// Wraps an existing, already-formatted page buffer.
  explicit SlottedPage(char* data) : data_(data) {}

  /// Formats a fresh buffer as an empty slotted page.
  static SlottedPage Format(char* data);

  uint16_t num_slots() const;

  /// Bytes available for one more record of any size (including its slot).
  uint16_t FreeSpace() const;

  /// True if a record of `size` bytes fits (slot included).
  bool HasRoomFor(uint16_t size) const;

  /// Inserts a record, returning its slot number. An empty record is
  /// InvalidArgument: every slot holds at least one byte.
  Result<uint16_t> Insert(std::string_view record);

  /// Returns the record stored in `slot`: OutOfRange for a slot past the
  /// end, Corruption for a zero-length slot, which Insert never writes.
  Result<std::string_view> Get(uint16_t slot) const;

 private:
  uint16_t ReadU16(size_t offset) const;
  void WriteU16(size_t offset, uint16_t value);

  char* data_;
};

}  // namespace epfis

#endif  // EPFIS_STORAGE_SLOTTED_PAGE_H_
