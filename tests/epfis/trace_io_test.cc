#include "epfis/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "epfis/lru_fit.h"
#include "epfis/trace_source.h"
#include "util/random.h"

namespace epfis {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file: parallel ctest processes must not share it.
    path_ = testing::TempDir() + "/epfis_trace_test_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes a trace file by hand: `magic`, then `count`, then `body`.
  void WriteRaw(const char* magic, uint64_t count,
                const std::vector<PageId>& body) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(magic, 8);
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(body.data()),
              static_cast<std::streamsize>(body.size() * sizeof(PageId)));
  }

  std::string path_;
};

TEST_F(TraceIoTest, PageTraceRoundTrip) {
  Rng rng(19);
  std::vector<PageId> trace;
  for (int i = 0; i < 10000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(500)));
  }
  ASSERT_TRUE(SavePageTrace(trace, path_).ok());
  auto loaded = LoadPageTrace(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, trace);
}

TEST_F(TraceIoTest, EmptyPageTraceRoundTrip) {
  ASSERT_TRUE(SavePageTrace({}, path_).ok());
  auto loaded = LoadPageTrace(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(TraceIoTest, WrongMagicRejected) {
  // A well-formed count and body under a foreign magic.
  WriteRaw("EPKTRC01", 3, {1, 2, 3});
  auto loaded = LoadPageTrace(path_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.status().message(), "trace file: bad magic");
}

// The header's count is untrusted. A count the file cannot hold fails
// before anything is sized from it, with the status OpenTraceSource gives
// for the same file, never with a vector length error or a huge
// allocation.
TEST_F(TraceIoTest, HeaderCountBeyondTheFileIsCorruption) {
  for (uint64_t count : {uint64_t{11}, uint64_t{1} << 62, UINT64_MAX}) {
    SCOPED_TRACE(count);
    WriteRaw(kPageTraceMagic, count, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    auto loaded = LoadPageTrace(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(loaded.status().message(), "trace file: truncated body");
    auto source = OpenTraceSource(path_);
    ASSERT_FALSE(source.ok());
    EXPECT_EQ(loaded.status(), source.status());
  }
}

TEST_F(TraceIoTest, TruncationDetected) {
  ASSERT_TRUE(SavePageTrace({1, 2, 3, 4, 5, 6, 7, 8}, path_).ok());
  // Chop the file mid-body.
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() - 6));
  out.close();
  EXPECT_EQ(LoadPageTrace(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, TrailingGarbageDetected) {
  ASSERT_TRUE(SavePageTrace({1, 2, 3}, path_).ok());
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out.write("junk", 4);
  out.close();
  EXPECT_EQ(LoadPageTrace(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadPageTrace("/no/such/dir/file.bin").status().code(),
            StatusCode::kIoError);
}

TEST_F(TraceIoTest, OfflineLruFitFromPersistedTrace) {
  // The decoupled workflow: persist the statistics scan, replay LRU-Fit
  // offline, get identical catalog statistics.
  Rng rng(23);
  std::vector<PageId> trace;
  PageId page = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBernoulli(0.8)) page = (page + 1) % 300;
    else page = static_cast<PageId>(rng.NextBounded(300));
    trace.push_back(page);
  }
  auto live = RunLruFit(trace, 300, 100, "idx").value();

  ASSERT_TRUE(SavePageTrace(trace, path_).ok());
  auto replayed_trace = LoadPageTrace(path_);
  ASSERT_TRUE(replayed_trace.ok());
  auto offline = RunLruFit(*replayed_trace, 300, 100, "idx").value();

  EXPECT_EQ(offline.f_min, live.f_min);
  EXPECT_DOUBLE_EQ(offline.clustering, live.clustering);
  EXPECT_EQ(offline.fpf->knots(), live.fpf->knots());
}

}  // namespace
}  // namespace epfis
