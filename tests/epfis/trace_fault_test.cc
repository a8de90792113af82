#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "epfis/trace_io.h"
#include "epfis/trace_source.h"
#include "util/fault.h"

namespace epfis {
namespace {

class TraceFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    // Per-test directory: parallel ctest processes must not share scratch.
    dir_ = testing::TempDir() + "/epfis_trace_fault_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    trace_.resize(1000);
    for (size_t i = 0; i < trace_.size(); ++i) {
      trace_[i] = static_cast<PageId>(i % 37);
    }
    path_ = dir_ + "/trace.bin";
    ASSERT_TRUE(SavePageTrace(trace_, path_).ok());
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  // A point's lifetime fire count. DisarmAll does not reset it, so tests
  // assert the change across the action they drive, which keeps them
  // independent of the tests that ran before them in the process.
  static uint64_t Fires(const std::string& point) {
    return FaultInjector::Global().counters(point).fires;
  }

  std::vector<PageId> ReadAll(TraceSource& source) {
    std::vector<PageId> out;
    PageId buf[128];
    for (;;) {
      auto n = source.Next(buf, 128);
      EXPECT_TRUE(n.ok()) << n.status().message();
      if (!n.ok() || *n == 0) break;
      out.insert(out.end(), buf, buf + *n);
    }
    return out;
  }

  std::string dir_;
  std::string path_;
  std::vector<PageId> trace_;
};

// The short-read satellite: a schedule that clamps every read to a few
// bytes — even splitting entries across reads — must be absorbed by the
// continuation loop with no data corruption.
TEST_F(TraceFaultTest, ShortReadsAreTransparentlyContinued) {
  FaultSpec spec;
  spec.kind = FaultKind::kShortRead;
  spec.short_io_bytes = 3;  // Not a divisor of sizeof(PageId): splits entries.
  FaultInjector::Global().Arm("trace.read.body", spec);

  const uint64_t fired = Fires("trace.read.body");
  auto source = FileTraceSource::Open(path_);
  ASSERT_TRUE(source.ok()) << source.status().message();
  EXPECT_EQ(ReadAll(*source), trace_);
  EXPECT_GT(Fires("trace.read.body") - fired, 0u);
}

TEST_F(TraceFaultTest, ShortReadsOnHeaderToo) {
  FaultSpec spec;
  spec.kind = FaultKind::kShortRead;
  spec.short_io_bytes = 1;
  FaultInjector::Global().Arm("trace.read.header", spec);
  auto source = FileTraceSource::Open(path_);
  ASSERT_TRUE(source.ok()) << source.status().message();
  EXPECT_EQ(source->size_hint(), trace_.size());
}

// The EINTR satellite: a finite burst of interrupted reads is retried;
// an unbounded storm exhausts the retry budget and fails cleanly instead
// of hanging.
TEST_F(TraceFaultTest, FiniteEintrBurstIsRetried) {
  FaultSpec spec;
  spec.kind = FaultKind::kEintr;
  spec.max_fires = 7;
  FaultInjector::Global().Arm("trace.read.body", spec);

  const uint64_t fired = Fires("trace.read.body");
  auto source = FileTraceSource::Open(path_);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(ReadAll(*source), trace_);
  EXPECT_EQ(Fires("trace.read.body") - fired, 7u);
}

TEST_F(TraceFaultTest, UnboundedEintrStormFailsWithIoError) {
  FaultSpec spec;
  spec.kind = FaultKind::kEintr;  // Fires on every call, forever.
  FaultInjector::Global().Arm("trace.read.body", spec);

  const uint64_t fired = Fires("trace.read.body");
  auto source = FileTraceSource::Open(path_);
  ASSERT_TRUE(source.ok());
  PageId buf[64];
  Result<size_t> n = source->Next(buf, 64);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kIoError);
  EXPECT_NE(n.status().message().find("interrupted"), std::string::npos);
  // The error accounts for the retries it consumed.
  EXPECT_NE(n.status().message().find("100 of 100 retries consumed"),
            std::string::npos)
      << n.status().message();
  // The retry budget bounds the spin: ~100 consults, not millions.
  EXPECT_LE(Fires("trace.read.body") - fired, 200u);
}

TEST_F(TraceFaultTest, OpenAndSaveFaultPointsSurface) {
  FaultSpec one_shot;
  one_shot.max_fires = 1;

  FaultInjector::Global().Arm("trace.open", one_shot);
  EXPECT_EQ(FileTraceSource::Open(path_).status().code(),
            StatusCode::kIoError);
  EXPECT_TRUE(FileTraceSource::Open(path_).ok());  // Clean retry.

  FaultInjector::Global().Arm("trace.save.open", one_shot);
  EXPECT_EQ(SavePageTrace(trace_, dir_ + "/t2.bin").code(),
            StatusCode::kIoError);
  FaultInjector::Global().Arm("trace.save.write", one_shot);
  EXPECT_EQ(SavePageTrace(trace_, dir_ + "/t3.bin").code(),
            StatusCode::kIoError);
  EXPECT_TRUE(SavePageTrace(trace_, dir_ + "/t4.bin").ok());
}

// The degradation satellite: an mmap failure (injected at the same exit a
// real one takes) silently falls back to the streaming reader.
TEST_F(TraceFaultTest, MmapFailureDegradesToStreaming) {
  if (!MmapTraceSource::Supported()) GTEST_SKIP() << "no mmap here";
  FaultSpec one_shot;
  one_shot.max_fires = 1;
  FaultInjector::Global().Arm("trace.mmap.map", one_shot);

  const uint64_t fired = Fires("trace.mmap.map");
  auto source = OpenTraceSource(path_);
  ASSERT_TRUE(source.ok()) << source.status().message();
  EXPECT_EQ(Fires("trace.mmap.map") - fired, 1u);
  // The fallback source streams the identical trace.
  EXPECT_EQ(ReadAll(**source), trace_);
}

TEST_F(TraceFaultTest, CorruptionStillPropagatesThroughOpenTraceSource) {
  // A Corruption-coded injected fault at the mmap point must NOT trigger
  // the fallback: corrupt files are corrupt through any access path.
  if (!MmapTraceSource::Supported()) GTEST_SKIP() << "no mmap here";
  FaultSpec spec;
  spec.code = StatusCode::kCorruption;
  spec.max_fires = 1;
  FaultInjector::Global().Arm("trace.mmap.map", spec);
  EXPECT_EQ(OpenTraceSource(path_).status().code(), StatusCode::kCorruption);
}

// The streaming fallback opens exactly once: a failed open surfaces as
// IoError instead of being retried, and the next OpenTraceSource opens
// and reads the trace cleanly.
TEST_F(TraceFaultTest, StreamingFallbackOpenFailsOnceThenRecovers) {
  FaultSpec one_shot;
  one_shot.max_fires = 1;
  FaultInjector::Global().Arm("trace.open", one_shot);
  // mmap must also fail so OpenTraceSource reaches the streaming opener.
  FaultInjector::Global().Arm("trace.mmap.map", FaultSpec{});

  const uint64_t fired = Fires("trace.open");
  EXPECT_EQ(OpenTraceSource(path_).status().code(), StatusCode::kIoError);
  EXPECT_EQ(Fires("trace.open") - fired, 1u);

  auto source = OpenTraceSource(path_);
  ASSERT_TRUE(source.ok()) << source.status().message();
  EXPECT_EQ(ReadAll(**source), trace_);
}

// LoadPageTrace drains OpenTraceSource: with mmap failing, it streams
// through the hardened reader and absorbs its short reads too.
TEST_F(TraceFaultTest, LoadPageTraceSharesHardenedPath) {
  FaultSpec short_reads;
  short_reads.kind = FaultKind::kShortRead;
  short_reads.short_io_bytes = 5;
  FaultInjector::Global().Arm("trace.read.body", short_reads);
  FaultInjector::Global().Arm("trace.mmap.map", FaultSpec{});

  const uint64_t mapped = Fires("trace.mmap.map");
  const uint64_t fired = Fires("trace.read.body");
  auto loaded = LoadPageTrace(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(*loaded, trace_);
  if (MmapTraceSource::Supported()) {
    EXPECT_EQ(Fires("trace.mmap.map") - mapped, 1u);
  }
  // Only the streaming reader consults the body read point.
  EXPECT_GT(Fires("trace.read.body") - fired, 0u);
}

}  // namespace
}  // namespace epfis
