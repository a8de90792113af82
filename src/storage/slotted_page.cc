#include "storage/slotted_page.h"

#include <cstring>

namespace epfis {
namespace {

constexpr size_t kNumSlotsOffset = 0;
constexpr size_t kFreeEndOffset = 2;
constexpr size_t kHeaderSize = 4;
constexpr size_t kSlotSize = 4;

size_t SlotOffset(uint16_t slot) { return kHeaderSize + kSlotSize * slot; }

}  // namespace

uint16_t SlottedPage::ReadU16(size_t offset) const {
  uint16_t v;
  std::memcpy(&v, data_ + offset, sizeof(v));
  return v;
}

void SlottedPage::WriteU16(size_t offset, uint16_t value) {
  std::memcpy(data_ + offset, &value, sizeof(value));
}

SlottedPage SlottedPage::Format(char* data) {
  std::memset(data, 0, kPageSize);
  SlottedPage page(data);
  page.WriteU16(kNumSlotsOffset, 0);
  page.WriteU16(kFreeEndOffset, static_cast<uint16_t>(kPageSize));
  return page;
}

uint16_t SlottedPage::num_slots() const { return ReadU16(kNumSlotsOffset); }

uint16_t SlottedPage::FreeSpace() const {
  size_t slots_end = SlotOffset(num_slots());
  size_t free_end = ReadU16(kFreeEndOffset);
  if (free_end <= slots_end) return 0;
  size_t gap = free_end - slots_end;
  return gap >= kSlotSize ? static_cast<uint16_t>(gap - kSlotSize) : 0;
}

bool SlottedPage::HasRoomFor(uint16_t size) const {
  return FreeSpace() >= size;
}

Result<uint16_t> SlottedPage::Insert(std::string_view record) {
  if (record.empty()) {
    return Status::InvalidArgument("empty record");
  }
  if (record.size() > UINT16_MAX) {
    return Status::InvalidArgument("record too large for a slot");
  }
  uint16_t size = static_cast<uint16_t>(record.size());
  if (!HasRoomFor(size)) {
    return Status::ResourceExhausted("page full");
  }
  uint16_t slot = num_slots();
  uint16_t free_end = ReadU16(kFreeEndOffset);
  uint16_t offset = static_cast<uint16_t>(free_end - size);
  std::memcpy(data_ + offset, record.data(), size);
  WriteU16(SlotOffset(slot), offset);
  WriteU16(SlotOffset(slot) + 2, size);
  WriteU16(kNumSlotsOffset, static_cast<uint16_t>(slot + 1));
  WriteU16(kFreeEndOffset, offset);
  return slot;
}

Result<std::string_view> SlottedPage::Get(uint16_t slot) const {
  if (slot >= num_slots()) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " out of range");
  }
  uint16_t offset = ReadU16(SlotOffset(slot));
  uint16_t size = ReadU16(SlotOffset(slot) + 2);
  if (size == 0) {
    return Status::Corruption("slot " + std::to_string(slot) +
                              " has zero length");
  }
  return std::string_view(data_ + offset, size);
}

}  // namespace epfis
