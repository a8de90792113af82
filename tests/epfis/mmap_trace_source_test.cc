// Edge-case taxonomy tests for the two file-backed trace readers,
// FileTraceSource (streaming) and MmapTraceSource, and for LoadPageTrace,
// which drains OpenTraceSource. Both readers check the whole file at Open
// through one function, so they classify every malformed file
// identically, and LoadPageTrace reports exactly OpenTraceSource's Status.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "epfis/trace_io.h"
#include "epfis/trace_source.h"
#include "util/random.h"

namespace epfis {
namespace {

class TempTraceFile {
 public:
  explicit TempTraceFile(const std::string& name)
      : path_("/tmp/epfis_mmap_test_" + name + ".bin") {}
  ~TempTraceFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  void WriteRaw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void AppendRaw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void Truncate(long delta) {
    std::ifstream in(path_, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    contents.resize(contents.size() - static_cast<size_t>(delta));
    WriteRaw(contents);
  }

 private:
  std::string path_;
};

// Status a source assigns to its file, wherever it surfaces: at Open or
// on any Next (draining the whole file).
template <typename Source>
Status Verdict(const std::string& path) {
  auto source = Source::Open(path);
  if (!source.ok()) return source.status();
  PageId buf[64];
  for (;;) {
    auto n = source->Next(buf, 64);
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::Ok();
  }
}

Status StreamingVerdict(const std::string& path) {
  return Verdict<FileTraceSource>(path);
}

Status MmapVerdict(const std::string& path) {
  return Verdict<MmapTraceSource>(path);
}

// The third verdict: LoadPageTrace must report exactly what
// OpenTraceSource reports for the same file, message and code alike.
Status LoadVerdict(const std::string& path) {
  Status loaded = LoadPageTrace(path).status();
  Status opened = OpenTraceSource(path).status();
  EXPECT_EQ(loaded.ToString(), opened.ToString()) << path;
  return loaded;
}

TEST(MmapTraceSourceTest, SupportedOnThisPlatform) {
  // The CI and dev platforms are POSIX; the fallback path is exercised
  // through OpenTraceSource's taxonomy tests below either way.
  EXPECT_TRUE(MmapTraceSource::Supported());
}

TEST(MmapTraceSourceTest, RoundTripsAndResets) {
  Rng rng(7);
  std::vector<PageId> trace;
  for (int i = 0; i < 50'000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(999)));
  }
  TempTraceFile file("roundtrip");
  ASSERT_TRUE(SavePageTrace(trace, file.path()).ok());

  auto source = MmapTraceSource::Open(file.path());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE(source->size_hint().has_value());
  EXPECT_EQ(*source->size_hint(), trace.size());

  // Chunk size deliberately not a divisor of the trace length.
  std::vector<PageId> drained;
  std::vector<PageId> buf(4'097);
  for (;;) {
    auto n = source->Next(buf.data(), buf.size());
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    drained.insert(drained.end(), buf.begin(), buf.begin() + *n);
  }
  EXPECT_EQ(drained, trace);

  ASSERT_TRUE(source->Reset().ok());
  auto n = source->Next(buf.data(), 3);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(buf[0], trace[0]);
}

TEST(MmapTraceSourceTest, MoveTransfersTheMapping) {
  TempTraceFile file("move");
  ASSERT_TRUE(SavePageTrace({1, 2, 3}, file.path()).ok());
  auto opened = MmapTraceSource::Open(file.path());
  ASSERT_TRUE(opened.ok());
  MmapTraceSource moved = std::move(opened).value();
  PageId buf[8];
  auto n = moved.Next(buf, 8);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(buf[2], 3u);
}

TEST(MmapTraceSourceTest, MissingFileIsIoErrorInBothReaders) {
  const std::string path = "/tmp/epfis_no_such_trace_mmap.bin";
  EXPECT_EQ(MmapVerdict(path).code(), StatusCode::kIoError);
  EXPECT_EQ(StreamingVerdict(path).code(), StatusCode::kIoError);
  EXPECT_EQ(LoadVerdict(path).code(), StatusCode::kIoError);
}

TEST(MmapTraceSourceTest, EmptyTraceIsValidInBothReaders) {
  TempTraceFile file("empty");
  ASSERT_TRUE(SavePageTrace({}, file.path()).ok());
  EXPECT_TRUE(MmapVerdict(file.path()).ok());
  EXPECT_TRUE(StreamingVerdict(file.path()).ok());
  EXPECT_TRUE(LoadVerdict(file.path()).ok());
  auto source = MmapTraceSource::Open(file.path());
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(*source->size_hint(), 0u);
  PageId buf[4];
  EXPECT_EQ(source->Next(buf, 4).value(), 0u);
}

TEST(MmapTraceSourceTest, TruncatedBodyIsCorruptionInBothReaders) {
  TempTraceFile file("truncated");
  ASSERT_TRUE(SavePageTrace({1, 2, 3, 4, 5}, file.path()).ok());
  file.Truncate(2);  // Chop into the last entry.
  EXPECT_EQ(MmapVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(StreamingVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(LoadVerdict(file.path()).code(), StatusCode::kCorruption);

  // A header count the body cannot hold, up to counts whose byte size
  // overflows 64 bits, is the same truncated body in every verdict, never
  // a huge allocation or a length error.
  for (uint64_t count : {uint64_t{4}, uint64_t{1} << 62, UINT64_MAX}) {
    SCOPED_TRACE(count);
    std::string bytes(kPageTraceMagic, 8);
    bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
    bytes.append(3 * sizeof(PageId), '\0');
    file.WriteRaw(bytes);
    Status stream_status = StreamingVerdict(file.path());
    EXPECT_EQ(stream_status.ToString(),
              Status::Corruption("trace file: truncated body").ToString());
    EXPECT_EQ(MmapVerdict(file.path()).ToString(), stream_status.ToString());
    EXPECT_EQ(LoadVerdict(file.path()).ToString(), stream_status.ToString());
  }
}

TEST(MmapTraceSourceTest, TrailingBytesAreCorruptionInBothReaders) {
  TempTraceFile file("trailing");
  ASSERT_TRUE(SavePageTrace({1, 2, 3}, file.path()).ok());
  file.AppendRaw("xx");
  EXPECT_EQ(MmapVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(StreamingVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(LoadVerdict(file.path()).code(), StatusCode::kCorruption);
}

TEST(MmapTraceSourceTest, ForeignMagicIsCorruptionInBothReaders) {
  TempTraceFile file("magic");
  std::string foreign = "NOTEPFIS";
  foreign.append(8, '\0');  // Plausible length field after the bad magic.
  file.WriteRaw(foreign);
  EXPECT_EQ(MmapVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(StreamingVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(LoadVerdict(file.path()).code(), StatusCode::kCorruption);
}

TEST(MmapTraceSourceTest, TruncatedHeaderIsCorruptionInBothReaders) {
  TempTraceFile file("header");
  file.WriteRaw("EPFT");  // Shorter than the magic itself.
  EXPECT_EQ(MmapVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(StreamingVerdict(file.path()).code(), StatusCode::kCorruption);
  EXPECT_EQ(LoadVerdict(file.path()).code(), StatusCode::kCorruption);
}

// Regression: a zero-length file used to reach mmap itself, and mapping 0
// bytes is EINVAL on Linux — the old code surfaced that as an IoError (or
// worse on platforms where mmap(0) "succeeds" with an unusable mapping).
// Sub-header files must be rejected before mmap with the same Status the
// streaming reader produces, message and code alike.
TEST(MmapTraceSourceTest, ZeroLengthFileIsBadMagicInBothReaders) {
  TempTraceFile file("zero");
  file.WriteRaw("");
  Status mmap_status = MmapVerdict(file.path());
  Status stream_status = StreamingVerdict(file.path());
  EXPECT_EQ(mmap_status.code(), StatusCode::kCorruption);
  EXPECT_EQ(stream_status.code(), StatusCode::kCorruption);
  EXPECT_EQ(mmap_status.ToString(), stream_status.ToString());
  EXPECT_EQ(LoadVerdict(file.path()).ToString(), stream_status.ToString());
}

TEST(MmapTraceSourceTest, GoodMagicTruncatedCountInBothReaders) {
  // 8 valid magic bytes followed by only half of the u64 count: both
  // readers must call this a truncated header, not bad magic.
  TempTraceFile file("partial_count");
  std::string bytes(kPageTraceMagic, 8);
  bytes.append(4, '\0');
  file.WriteRaw(bytes);
  Status mmap_status = MmapVerdict(file.path());
  Status stream_status = StreamingVerdict(file.path());
  EXPECT_EQ(mmap_status.code(), StatusCode::kCorruption);
  EXPECT_EQ(stream_status.code(), StatusCode::kCorruption);
  EXPECT_EQ(mmap_status.ToString(), stream_status.ToString());
  EXPECT_EQ(LoadVerdict(file.path()).ToString(), stream_status.ToString());
  EXPECT_NE(mmap_status.ToString().find("truncated header"),
            std::string::npos)
      << mmap_status.ToString();
}

TEST(MmapTraceSourceTest, HeaderOnlyFileIsAValidEmptyTrace) {
  // Exactly the 16 header bytes with count = 0: the smallest valid file.
  TempTraceFile file("header_only");
  std::string bytes(kPageTraceMagic, 8);
  bytes.append(8, '\0');
  file.WriteRaw(bytes);
  EXPECT_TRUE(MmapVerdict(file.path()).ok());
  EXPECT_TRUE(StreamingVerdict(file.path()).ok());
  EXPECT_TRUE(LoadVerdict(file.path()).ok());
}

TEST(OpenTraceSourceTest, PicksAWorkingSourceAndPropagatesCorruption) {
  TempTraceFile file("factory");
  std::vector<PageId> trace{4, 5, 6, 4};
  ASSERT_TRUE(SavePageTrace(trace, file.path()).ok());
  auto source = OpenTraceSource(file.path());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE((*source)->size_hint().has_value());
  EXPECT_EQ(*(*source)->size_hint(), trace.size());
  PageId buf[8];
  auto n = (*source)->Next(buf, 8);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(buf[3], 4u);

  file.AppendRaw("z");
  EXPECT_EQ(OpenTraceSource(file.path()).status().code(),
            StatusCode::kCorruption);

  // A zero-length file is a format error, not an mmap I/O failure: the
  // factory must report Corruption rather than crash or silently fall
  // back to a reader that fails later.
  file.WriteRaw("");
  EXPECT_EQ(OpenTraceSource(file.path()).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace epfis
