#include "buffer/stack_distance_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "buffer/parallel_stack_distance.h"
#include "buffer/stack_distance.h"
#include "epfis/trace_source.h"
#include "util/random.h"
#include "util/zipf.h"

namespace epfis {
namespace {

StackDistanceHistogram LegacyHistogram(const std::vector<PageId>& trace) {
  StackDistanceSimulator sim(trace.size());
  sim.AccessAll(trace);
  return sim.histogram();
}

// The tentpole property: the cache-conscious kernel is bit-identical to
// the legacy reference simulator — same histogram, same derived fetch
// counts — for any trace and any initial window (i.e. across compaction
// schedules).
void ExpectKernelMatchesLegacy(const std::vector<PageId>& trace,
                               size_t window_hint = 0) {
  StackDistanceHistogram legacy = LegacyHistogram(trace);
  StackDistanceKernel kernel(trace.size(), window_hint);
  kernel.AccessAll(trace);
  EXPECT_EQ(kernel.accesses(), legacy.accesses());
  EXPECT_EQ(kernel.cold_misses(), legacy.cold_misses());
  EXPECT_TRUE(kernel.histogram() == legacy) << "window=" << window_hint;
  for (uint64_t b : {0ULL, 1ULL, 2ULL, 5ULL, 17ULL, 100ULL, 100000ULL}) {
    EXPECT_EQ(kernel.Fetches(b), legacy.Fetches(b))
        << "window=" << window_hint << " b=" << b;
  }
}

std::vector<PageId> UniformTrace(size_t refs, uint32_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  trace.reserve(refs);
  for (size_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(pages)));
  }
  return trace;
}

std::vector<PageId> ZipfTrace(size_t refs, uint64_t pages, double theta,
                              uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf = ZipfDistribution::Make(pages, theta).value();
  std::vector<PageId> trace;
  trace.reserve(refs);
  for (size_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(zipf.Sample(rng) - 1));
  }
  return trace;
}

TEST(StackDistanceKernelTest, MatchesLegacyOnUniformTraces) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ExpectKernelMatchesLegacy(UniformTrace(20'000, 500, seed));
  }
}

TEST(StackDistanceKernelTest, MatchesLegacyOnZipfTraces) {
  for (uint64_t seed : {11ULL, 12ULL}) {
    ExpectKernelMatchesLegacy(ZipfTrace(20'000, 1'000, 0.86, seed));
  }
}

TEST(StackDistanceKernelTest, MatchesLegacyOnStructuredTraces) {
  // Clustered: page reuse never crosses a reference gap.
  std::vector<PageId> clustered;
  for (PageId p = 0; p < 300; ++p) {
    for (int r = 0; r < 7; ++r) clustered.push_back(p);
  }
  ExpectKernelMatchesLegacy(clustered);
  // Round-robin: every reuse distance equals the page count — the
  // worst case for compaction (every page stays live forever).
  std::vector<PageId> round_robin;
  for (int r = 0; r < 9; ++r) {
    for (PageId p = 0; p < 250; ++p) round_robin.push_back(p);
  }
  ExpectKernelMatchesLegacy(round_robin);
}

TEST(StackDistanceKernelTest, MatchesLegacyAcrossCompactionBoundaries) {
  // Tiny windows force a compaction every few references, so distances
  // are constantly computed on a freshly remapped time axis.
  auto uniform = UniformTrace(10'000, 300, 21);
  auto zipf = ZipfTrace(10'000, 500, 0.86, 22);
  for (size_t window : {2u, 3u, 7u, 64u, 1024u}) {
    ExpectKernelMatchesLegacy(uniform, window);
    ExpectKernelMatchesLegacy(zipf, window);
  }
  // Sanity: the tiny windows really did exercise the compaction path.
  StackDistanceKernel kernel(uniform.size(), 64);
  kernel.AccessAll(uniform);
  EXPECT_GT(kernel.compactions(), 0u);
}

TEST(StackDistanceKernelTest, CompactionBoundsTheTimeAxis) {
  // A high-reuse trace: 200 distinct pages, 50'000 references. With the
  // legacy simulator the Fenwick axis is 50'000 slots; the kernel must
  // keep it O(distinct), which shows up as many compactions at a small
  // fixed window rather than runaway growth. The small expected_refs
  // keeps the table's slot array small as well — the window only grows
  // past the hint to amortize the compaction's slot-array scan.
  auto trace = UniformTrace(50'000, 200, 31);
  StackDistanceKernel kernel(/*expected_refs=*/256,
                             /*window_hint=*/2'048);
  kernel.AccessAll(trace);
  EXPECT_EQ(kernel.accesses(), trace.size());
  EXPECT_EQ(kernel.distinct_pages(), 200u);
  EXPECT_GT(kernel.compactions(), 10u);
  EXPECT_TRUE(kernel.histogram() == LegacyHistogram(trace));
}

TEST(StackDistanceKernelTest, ChunkedAccessAllEqualsWholeTrace) {
  auto trace = ZipfTrace(8'192, 400, 0.86, 41);
  StackDistanceKernel whole(trace.size());
  whole.AccessAll(trace);
  StackDistanceKernel chunked(/*expected_refs=*/16, /*window_hint=*/32);
  for (size_t i = 0; i < trace.size(); i += 777) {
    size_t n = std::min<size_t>(777, trace.size() - i);
    chunked.AccessAll(trace.data() + i, n);
  }
  EXPECT_TRUE(whole.histogram() == chunked.histogram());
}

TEST(StackDistanceKernelTest, FetchesAtZeroBufferIsTotalReferences) {
  // Regression for the Fetches(0) edge on the new kernel path: buffer
  // size 0 means "no buffer" — every access misses.
  std::vector<PageId> trace{1, 1, 1, 2, 2, 1};
  StackDistanceKernel kernel;
  kernel.AccessAll(trace);
  EXPECT_EQ(kernel.Fetches(0), trace.size());
  EXPECT_EQ(kernel.Fetches(1), 3u);
  EXPECT_EQ(kernel.histogram().Fetches(0), trace.size());
}

TEST(StackDistanceKernelTest, ReReferenceOfTimeZeroPage) {
  // Regression for the prev == 0 prefix-sum underflow guard: the very
  // first page re-referenced later queries PrefixSum(prev - 1) with
  // prev == 0, which must contribute 0, not wrap around.
  std::vector<PageId> trace{9, 9};
  StackDistanceKernel kernel;
  kernel.AccessAll(trace);
  EXPECT_EQ(kernel.cold_misses(), 1u);
  EXPECT_EQ(kernel.Fetches(1), 1u);  // The re-reference hits at depth 1.
  ExpectKernelMatchesLegacy({5, 5, 5, 5});
  ExpectKernelMatchesLegacy({0, 1, 0, 2, 0, 3, 0});
  // Same edge immediately after a compaction resets the clock to 0.
  ExpectKernelMatchesLegacy({5, 6, 7, 5, 6, 7, 5}, /*window_hint=*/3);
}

// The production entry point consumes the kernel through
// ComputeStackDistances' streamed pass; pin that wiring with a
// source-vs-legacy comparison.
TEST(StackDistanceKernelTest, SerialComputeStackDistancesUsesKernelResult) {
  auto trace = ZipfTrace(30'000, 2'000, 0.86, 51);
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto histogram = ComputeStackDistances(source);
  ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
  EXPECT_TRUE(*histogram == LegacyHistogram(trace));
}

}  // namespace
}  // namespace epfis
