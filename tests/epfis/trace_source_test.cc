#include "epfis/trace_source.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "epfis/lru_fit.h"
#include "epfis/trace_io.h"
#include "util/random.h"

namespace epfis {
namespace {

std::vector<PageId> Drain(TraceSource& source, size_t chunk) {
  std::vector<PageId> out;
  std::vector<PageId> buf(chunk);
  for (;;) {
    auto n = source.Next(buf.data(), buf.size());
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    if (!n.ok() || *n == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + *n);
  }
  return out;
}

TEST(VectorTraceSourceTest, StreamsInChunksAndResets) {
  std::vector<PageId> trace{5, 4, 3, 2, 1, 0, 7};
  VectorTraceSource source = VectorTraceSource::View(trace);
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), trace.size());
  EXPECT_EQ(Drain(source, 3), trace);
  // Exhausted until Reset.
  PageId scratch[4];
  EXPECT_EQ(source.Next(scratch, 4).value(), 0u);
  ASSERT_TRUE(source.Reset().ok());
  EXPECT_EQ(Drain(source, 100), trace);
}

TEST(VectorTraceSourceTest, OwningConstructorKeepsData) {
  std::vector<PageId> trace{1, 2, 3};
  VectorTraceSource source(std::move(trace));
  EXPECT_EQ(Drain(source, 2), (std::vector<PageId>{1, 2, 3}));
}

TEST(FileTraceSourceTest, RoundTripsThroughTraceFile) {
  Rng rng(7);
  std::vector<PageId> trace;
  for (int i = 0; i < 10'000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(333)));
  }
  const std::string path = "/tmp/epfis_trace_source_test.bin";
  ASSERT_TRUE(SavePageTrace(trace, path).ok());

  auto source = FileTraceSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE(source->size_hint().has_value());
  EXPECT_EQ(*source->size_hint(), trace.size());
  // Chunk size deliberately not a divisor of the trace length.
  EXPECT_EQ(Drain(*source, 4097), trace);
  ASSERT_TRUE(source->Reset().ok());
  EXPECT_EQ(Drain(*source, 256), trace);
  std::remove(path.c_str());
}

TEST(FileTraceSourceTest, MissingFileFails) {
  EXPECT_FALSE(FileTraceSource::Open("/tmp/epfis_no_such_trace.bin").ok());
}

// Open checks the body's length, so a file truncated before Open fails
// there; a file that shrinks after Open fails the Next that runs short.
TEST(FileTraceSourceTest, DetectsTruncatedBody) {
  const std::string path = "/tmp/epfis_truncated_trace.bin";
  auto chop = [&path] {  // Chops off the last entry's bytes.
    std::FILE* f = std::fopen(path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    long size = (std::fseek(f, 0, SEEK_END), std::ftell(f));
    ASSERT_EQ(ftruncate(fileno(f), size - 2), 0);
    std::fclose(f);
  };
  ASSERT_TRUE(SavePageTrace({1, 2, 3, 4, 5}, path).ok());
  chop();
  EXPECT_EQ(FileTraceSource::Open(path).status().ToString(),
            Status::Corruption("trace file: truncated body").ToString());

  ASSERT_TRUE(SavePageTrace({1, 2, 3, 4, 5}, path).ok());
  auto source = FileTraceSource::Open(path);
  ASSERT_TRUE(source.ok());
  chop();
  PageId buf[16];
  EXPECT_EQ(source->Next(buf, 16).status().ToString(),
            Status::Corruption("trace file: truncated body").ToString());
  std::remove(path.c_str());
}

// The mmap reader pages the file in lazily, so a file truncated after
// Open must fail the next Next as the streaming reader does, not fault
// (SIGBUS) on a page the file no longer backs: first a cut halfway
// through the chunk about to be copied, then one to 4 KiB.
TEST(OpenTraceSourceTest, FileTruncatedAfterOpenFailsNextWithCorruption) {
  const std::string path = "/tmp/epfis_trace_source_shrink.bin";
  ASSERT_TRUE(SavePageTrace(std::vector<PageId>(1'000'000, 7), path).ok());
  auto source = OpenTraceSource(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_NE(dynamic_cast<MmapTraceSource*>(source->get()), nullptr);
  std::vector<PageId> buf(1 << 16);
  auto first = (*source)->Next(buf.data(), buf.size());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, buf.size());

  const std::string truncated =
      Status::Corruption("trace file: truncated body").ToString();
  off_t mid_chunk = static_cast<off_t>(kPageTraceHeaderSize +
                                       buf.size() * 3 / 2 * sizeof(PageId));
  for (off_t size : {mid_chunk, off_t{4096}}) {
    ASSERT_EQ(truncate(path.c_str(), size), 0);
    EXPECT_EQ((*source)->Next(buf.data(), buf.size()).status().ToString(),
              truncated)
        << "file cut to " << size << " bytes";
  }
  std::remove(path.c_str());
}

TEST(RunLruFitTest, TraceSourceMatchesVectorOverload) {
  Rng rng(17);
  std::vector<PageId> trace;
  for (int i = 0; i < 15'000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(400)));
  }
  auto from_vector = RunLruFit(trace, 400, 50, "idx");
  ASSERT_TRUE(from_vector.ok());

  const std::string path = "/tmp/epfis_lrufit_source_test.bin";
  ASSERT_TRUE(SavePageTrace(trace, path).ok());
  auto source = FileTraceSource::Open(path);
  ASSERT_TRUE(source.ok());
  auto from_file = RunLruFit(*source, 400, 50, "idx");
  ASSERT_TRUE(from_file.ok());
  std::remove(path.c_str());

  EXPECT_EQ(from_file->table_records, from_vector->table_records);
  EXPECT_EQ(from_file->pages_accessed, from_vector->pages_accessed);
  EXPECT_EQ(from_file->f_min, from_vector->f_min);
  EXPECT_DOUBLE_EQ(from_file->clustering, from_vector->clustering);
  for (double b : {12.0, 50.0, 200.0, 400.0}) {
    EXPECT_DOUBLE_EQ(from_file->FullScanFetches(b),
                     from_vector->FullScanFetches(b));
  }
}

TEST(LruFitOptionsTest, ValidateCatchesBadOptions) {
  LruFitOptions ok;
  EXPECT_TRUE(ok.Validate().ok());

  LruFitOptions zero_segments;
  zero_segments.num_segments = 0;
  EXPECT_EQ(zero_segments.Validate().code(), StatusCode::kInvalidArgument);

  for (double rate : {0.0, -0.5, 1.5, std::nan("")}) {
    LruFitOptions bad_rate;
    bad_rate.sample_rate = rate;
    EXPECT_EQ(bad_rate.Validate().code(), StatusCode::kInvalidArgument)
        << rate;
  }

  // RunLruFit surfaces the same error before touching the trace.
  auto stats = RunLruFit({1, 2, 3}, 10, 3, "x", zero_segments);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace epfis
