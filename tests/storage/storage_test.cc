#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "storage/slotted_page.h"

namespace epfis {
namespace {

TEST(DiskManagerTest, AllocatesSequentialIds) {
  DiskManager disk;
  EXPECT_EQ(disk.AllocatePage(), 0u);
  EXPECT_EQ(disk.AllocatePage(), 1u);
  EXPECT_EQ(disk.AllocatePage(), 2u);
  EXPECT_EQ(disk.num_pages(), 3u);
}

TEST(DiskManagerTest, RoundTripsPageContents) {
  DiskManager disk;
  PageId pid = disk.AllocatePage();
  char out[kPageSize], in[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) {
    out[i] = static_cast<char>(i % 251);
  }
  ASSERT_TRUE(disk.WritePage(pid, out).ok());
  ASSERT_TRUE(disk.ReadPage(pid, in).ok());
  EXPECT_EQ(std::memcmp(out, in, kPageSize), 0);
}

TEST(DiskManagerTest, NewPagesAreZeroFilled) {
  DiskManager disk;
  PageId pid = disk.AllocatePage();
  char in[kPageSize];
  ASSERT_TRUE(disk.ReadPage(pid, in).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(in[i], 0);
}

TEST(DiskManagerTest, CountsReadsAndWrites) {
  DiskManager disk;
  PageId pid = disk.AllocatePage();
  char buf[kPageSize] = {};
  ASSERT_TRUE(disk.WritePage(pid, buf).ok());
  ASSERT_TRUE(disk.ReadPage(pid, buf).ok());
  ASSERT_TRUE(disk.ReadPage(pid, buf).ok());
  EXPECT_EQ(disk.num_writes(), 1u);
  EXPECT_EQ(disk.num_reads(), 2u);
}

TEST(DiskManagerTest, OutOfRangeAccessFails) {
  DiskManager disk;
  char buf[kPageSize] = {};
  EXPECT_EQ(disk.ReadPage(5, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.WritePage(5, buf).code(), StatusCode::kOutOfRange);
}

class SlottedPageTest : public ::testing::Test {
 protected:
  void SetUp() override { page_ = SlottedPage::Format(buffer_); }
  char buffer_[kPageSize];
  SlottedPage page_{buffer_};
};

TEST_F(SlottedPageTest, FormatYieldsEmptyPage) {
  EXPECT_EQ(page_.num_slots(), 0u);
  EXPECT_GT(page_.FreeSpace(), 4000u);
}

TEST_F(SlottedPageTest, InsertAndGet) {
  auto slot = page_.Insert("hello");
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot.value(), 0u);
  auto got = page_.Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "hello");
  EXPECT_EQ(page_.num_slots(), 1u);
}

TEST_F(SlottedPageTest, MultipleRecordsKeepDistinctContents) {
  std::vector<std::string> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back("record-" + std::to_string(i));
    ASSERT_TRUE(page_.Insert(payloads.back()).ok());
  }
  for (int i = 0; i < 20; ++i) {
    auto got = page_.Get(static_cast<uint16_t>(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), payloads[i]);
  }
}

TEST_F(SlottedPageTest, FillsUntilExactCapacity) {
  // 60-byte records + 4-byte slots: fits floor(4092/64) = 63 records.
  std::string payload(60, 'x');
  int inserted = 0;
  while (true) {
    auto slot = page_.Insert(payload);
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    ++inserted;
    ASSERT_LT(inserted, 100);
  }
  EXPECT_EQ(inserted, 63);
}

// Every slot holds at least one byte: Insert rejects an empty record, and
// a zero-length slot, which Insert never writes, reads as Corruption.
TEST_F(SlottedPageTest, NoSlotHasZeroLength) {
  EXPECT_EQ(page_.Insert("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(page_.num_slots(), 0u);
  ASSERT_TRUE(page_.Insert("abc").ok());
  ASSERT_TRUE(page_.Insert("def").ok());
  // Slot 0's length field: 4-byte page header, then [offset][length].
  const uint16_t zero = 0;
  std::memcpy(buffer_ + 6, &zero, sizeof(zero));
  EXPECT_EQ(page_.Get(0).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(page_.Get(1).value(), "def");
}

TEST_F(SlottedPageTest, GetOutOfRange) {
  EXPECT_EQ(page_.Get(0).status().code(), StatusCode::kOutOfRange);
}

TEST(SchemaTest, RejectsEmptyAndTooSmall) {
  EXPECT_FALSE(Schema::Make({}).ok());
  EXPECT_FALSE(Schema::Make({Column{"a"}, Column{"b"}}, 8).ok());
}

TEST(SchemaTest, DefaultRecordSizeIsFieldBytes) {
  auto schema = Schema::Make({Column{"a"}, Column{"b"}});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->record_size(), 16u);
  EXPECT_EQ(schema->num_columns(), 2u);
}

TEST(SchemaTest, RecordsPerPageAtLeastRequestedFit) {
  // Byte math guarantees *at least* R records fit (the exact count is
  // enforced by TableHeap's per-page cap; see table_heap_test.cc).
  for (uint32_t r : {1u, 10u, 20u, 40u, 80u, 104u, 123u, 255u}) {
    auto schema = Schema::MakeWithRecordsPerPage({Column{"k"}}, r);
    ASSERT_TRUE(schema.ok()) << "r=" << r;
    char buf[kPageSize];
    SlottedPage page = SlottedPage::Format(buf);
    std::string payload(schema->record_size(), 'p');
    uint32_t fit = 0;
    while (page.Insert(payload).ok()) ++fit;
    EXPECT_GE(fit, r) << "r=" << r;
    EXPECT_LE(fit, r + r / 16 + 1) << "r=" << r;  // Not wildly more.
  }
}

TEST(SchemaTest, RecordsPerPageImpossible) {
  EXPECT_FALSE(Schema::MakeWithRecordsPerPage({Column{"k"}}, 0).ok());
  EXPECT_FALSE(Schema::MakeWithRecordsPerPage({Column{"k"}}, 2000).ok());
}

TEST(RecordTest, SerializeDeserializeRoundTrip) {
  auto schema = Schema::Make({Column{"a"}, Column{"b"}}, 32);
  ASSERT_TRUE(schema.ok());
  Record record({-123456789, 42});
  auto bytes = record.Serialize(*schema);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->size(), 32u);
  auto back = Record::Deserialize(*schema, *bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, record);
  EXPECT_EQ(back->value(0), -123456789);
  EXPECT_EQ(back->value(1), 42);
  for (size_t column = 0; column < schema->num_columns(); ++column) {
    auto value = Record::DeserializeValue(*schema, *bytes, column);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, back->value(column)) << "column " << column;
  }
}

TEST(RecordTest, ArityMismatchFails) {
  auto schema = Schema::Make({Column{"a"}});
  ASSERT_TRUE(schema.ok());
  EXPECT_FALSE(Record({1, 2}).Serialize(*schema).ok());
}

TEST(RecordTest, DeserializeWrongSizeFails) {
  auto schema = Schema::Make({Column{"a"}});
  ASSERT_TRUE(schema.ok());
  Status whole = Record::Deserialize(*schema, "short").status();
  EXPECT_EQ(whole.code(), StatusCode::kCorruption);
  // The single-column decoder runs the same check: same code, same message.
  Status column = Record::DeserializeValue(*schema, "short", 0).status();
  EXPECT_EQ(column.code(), StatusCode::kCorruption);
  EXPECT_EQ(column.message(), whole.message());
}

}  // namespace
}  // namespace epfis
