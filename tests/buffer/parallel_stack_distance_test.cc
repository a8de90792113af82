#include "buffer/parallel_stack_distance.h"

#include <gtest/gtest.h>

#include <vector>

#include "buffer/stack_distance.h"
#include "epfis/trace_source.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace epfis {
namespace {

StackDistanceHistogram SerialHistogram(const std::vector<PageId>& trace) {
  StackDistanceSimulator sim(trace.size());
  sim.AccessAll(trace);
  return sim.histogram();
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

TEST(ParallelStackDistanceTest, EmptyTraceFails) {
  std::vector<PageId> empty;
  VectorTraceSource source = VectorTraceSource::View(empty);
  EXPECT_FALSE(ComputeStackDistances(source).ok());
  VectorTraceSource sampled_source = VectorTraceSource::View(empty);
  EXPECT_FALSE(ComputeSampledStackDistances(sampled_source, nullptr).ok());
}

TEST(ParallelStackDistanceTest, NullPoolMatchesSimulator) {
  auto trace = UniformTrace(5'000, 200, 99);
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto serial = ComputeSampledStackDistances(source, nullptr);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(serial->histogram == SerialHistogram(trace));
  VectorTraceSource exact_source = VectorTraceSource::View(trace);
  auto exact = ComputeStackDistances(exact_source);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(*exact == SerialHistogram(trace));
}

// The pool parameter survives only for source compatibility; the pass is
// serial, so a caller still handing it a pool is told so rather than
// silently serialized.
TEST(ParallelStackDistanceTest, NonNullPoolIsInvalidArgument) {
  ThreadPool pool(2);
  auto trace = UniformTrace(1'000, 50, 98);
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto result = ComputeSampledStackDistances(source, &pool);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StackDistanceHistogramTest, FetchesAtZeroBufferIsTotalReferences) {
  // Regression: Fetches documents buffer_size >= 1; buffer_size == 0 must
  // mean "no buffer", i.e. every access misses — not be treated as 1.
  std::vector<PageId> trace{1, 1, 1, 2, 2, 1};
  StackDistanceSimulator sim;
  sim.AccessAll(trace);
  EXPECT_EQ(sim.Fetches(0), trace.size());
  EXPECT_EQ(sim.Fetches(1), 3u);  // 2 cold + the re-reference across page 2.
  EXPECT_EQ(sim.histogram().Fetches(0), trace.size());
}

}  // namespace
}  // namespace epfis
