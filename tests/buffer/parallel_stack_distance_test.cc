#include "buffer/parallel_stack_distance.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "buffer/stack_distance.h"
#include "epfis/trace_source.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace epfis {
namespace {

StackDistanceHistogram SerialHistogram(const std::vector<PageId>& trace) {
  StackDistanceSimulator sim(trace.size());
  sim.AccessAll(trace);
  return sim.histogram();
}

// The property at the heart of the parallel pipeline: for any trace and
// any shard count, the sharded computation is exactly the serial one.
void ExpectParallelMatchesSerial(const std::vector<PageId>& trace,
                                 ThreadPool& pool, size_t num_shards) {
  StackDistanceHistogram serial = SerialHistogram(trace);
  StackDistanceOptions options;
  options.num_shards = num_shards;
  options.min_shard_refs = 1;  // Exercise genuinely tiny shards.
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto parallel = ComputeStackDistances(source, &pool, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->accesses(), serial.accesses());
  EXPECT_EQ(parallel->cold_misses(), serial.cold_misses());
  EXPECT_TRUE(*parallel == serial) << "shards=" << num_shards;
  // Spot-check the derived fetch counts too (what LRU-Fit consumes).
  for (uint64_t b : {0ULL, 1ULL, 2ULL, 5ULL, 17ULL, 100ULL, 100000ULL}) {
    EXPECT_EQ(parallel->Fetches(b), serial.Fetches(b))
        << "shards=" << num_shards << " b=" << b;
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

TEST(ParallelStackDistanceTest, MatchesSerialOnUniformTraces) {
  ThreadPool pool(3);
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto trace = UniformTrace(20'000, 500, seed);
    for (size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      ExpectParallelMatchesSerial(trace, pool, shards);
    }
  }
}

TEST(ParallelStackDistanceTest, MatchesSerialOnZipfTraces) {
  ThreadPool pool(3);
  for (uint64_t seed : {11ULL, 12ULL}) {
    auto trace = ZipfTrace(20'000, 1'000, 0.86, seed);
    for (size_t shards : {1u, 2u, 5u, 13u}) {
      ExpectParallelMatchesSerial(trace, pool, shards);
    }
  }
}

TEST(ParallelStackDistanceTest, MatchesSerialOnStructuredTraces) {
  ThreadPool pool(2);
  // Clustered: page reuse never crosses a reference gap.
  std::vector<PageId> clustered;
  for (PageId p = 0; p < 300; ++p) {
    for (int r = 0; r < 7; ++r) clustered.push_back(p);
  }
  // Round-robin: every reuse distance equals the page count.
  std::vector<PageId> round_robin;
  for (int r = 0; r < 9; ++r) {
    for (PageId p = 0; p < 250; ++p) round_robin.push_back(p);
  }
  for (size_t shards : {2u, 4u, 11u}) {
    ExpectParallelMatchesSerial(clustered, pool, shards);
    ExpectParallelMatchesSerial(round_robin, pool, shards);
  }
}

TEST(ParallelStackDistanceTest, MoreShardsThanReferences) {
  ThreadPool pool(2);
  std::vector<PageId> tiny{3, 1, 3, 2, 1, 3};
  ExpectParallelMatchesSerial(tiny, pool, 16);
  std::vector<PageId> single{42};
  ExpectParallelMatchesSerial(single, pool, 4);
}

TEST(ParallelStackDistanceTest, EmptyTraceFails) {
  ThreadPool pool(2);
  std::vector<PageId> empty;
  VectorTraceSource source = VectorTraceSource::View(empty);
  EXPECT_FALSE(ComputeStackDistances(source, &pool).ok());
  VectorTraceSource serial_source = VectorTraceSource::View(empty);
  EXPECT_FALSE(ComputeStackDistances(serial_source, nullptr).ok());
}

TEST(ParallelStackDistanceTest, NullPoolMatchesSimulator) {
  auto trace = UniformTrace(5'000, 200, 99);
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto serial = ComputeStackDistances(source, nullptr);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(*serial == SerialHistogram(trace));
}

// ---------------------------------------------------------------------------
// Sharded merge: the barrier merge must be bit-identical to the serial
// kernel across shard counts, sampling modes, and shard-size floors.

// Runs the same trace sharded and serially for one sampling
// configuration, and requires both histograms (and the sampled
// summaries) to be exactly equal.
void ExpectShardedMatchesSerial(const std::vector<PageId>& trace,
                                ThreadPool& pool, size_t num_shards,
                                double sample_rate, size_t min_shard_refs) {
  StackDistanceOptions options;
  options.num_shards = num_shards;
  options.min_shard_refs = min_shard_refs;
  options.sampling.rate = sample_rate;

  VectorTraceSource sharded_source = VectorTraceSource::View(trace);
  auto sharded = ComputeSampledStackDistances(sharded_source, &pool, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  VectorTraceSource serial_source = VectorTraceSource::View(trace);
  auto serial = ComputeSampledStackDistances(serial_source, nullptr, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  const char* ctx_fmt = "shards=%zu rate=%.2f min_refs=%zu";
  std::string ctx(64, '\0');
  ctx.resize(static_cast<size_t>(snprintf(ctx.data(), ctx.size(), ctx_fmt,
                                          num_shards, sample_rate,
                                          min_shard_refs)));
  EXPECT_TRUE(sharded->histogram == serial->histogram) << ctx;
  EXPECT_EQ(sharded->sampling.sampled_refs, serial->sampling.sampled_refs)
      << ctx;
  EXPECT_EQ(sharded->sampling.exact_distinct, serial->sampling.exact_distinct)
      << ctx;
}

TEST(ShardedMergeTest, MatchesSerialUnfiltered) {
  ThreadPool pool(3);
  auto trace = ZipfTrace(30'000, 1'500, 0.85, 77);
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    ExpectShardedMatchesSerial(trace, pool, shards, /*sample_rate=*/1.0,
                               /*min_shard_refs=*/1);
  }
}

TEST(ShardedMergeTest, MatchesSerialFixedRate) {
  ThreadPool pool(3);
  auto trace = ZipfTrace(30'000, 1'500, 0.85, 78);
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    ExpectShardedMatchesSerial(trace, pool, shards, /*sample_rate=*/0.25,
                               /*min_shard_refs=*/1);
  }
}

TEST(ShardedMergeTest, MatchesSerialUnderShardRefsFloor) {
  // A floor far above refs/shards collapses the requested split into a few
  // big shards; one above the trace length forces a single shard. The
  // geometry must stay invisible in the output either way.
  ThreadPool pool(3);
  auto trace = UniformTrace(12'000, 800, 79);
  for (size_t shards : {2u, 8u}) {
    ExpectShardedMatchesSerial(trace, pool, shards, /*sample_rate=*/1.0,
                               /*min_shard_refs=*/5'000);
    ExpectShardedMatchesSerial(trace, pool, shards, /*sample_rate=*/0.25,
                               /*min_shard_refs=*/20'000);
  }
}

TEST(ShardedMergeTest, DefaultGeometryIsTwoShardsPerWorker) {
  // num_shards = 0 splits the trace into 2 shards per pool worker, no
  // matter what ran earlier in this process; the split must not show in
  // the result.
  ThreadPool pool(3);
  auto trace = ZipfTrace(25'000, 1'000, 0.9, 80);
  StackDistanceHistogram serial = SerialHistogram(trace);
  StackDistanceOptions options;
  options.num_shards = 0;
  options.min_shard_refs = 1;
  for (int run = 0; run < 2; ++run) {
    uint64_t shards_before =
        MetricsRegistry::Global().Snapshot().counters["sd.shards"];
    VectorTraceSource source = VectorTraceSource::View(trace);
    auto parallel = ComputeStackDistances(source, &pool, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(*parallel == serial);
#if EPFIS_METRICS_ENABLED
    EXPECT_EQ(MetricsRegistry::Global().Snapshot().counters["sd.shards"] -
                  shards_before,
              6u)
        << "run " << run;
#else
    (void)shards_before;
#endif
  }
}

TEST(ShardedMergeTest, MergeFaultSurfacesDrainsAndRecovers) {
  // A fault at the first merge step must come back as the injected Status
  // — with every shard future drained first (a hang here would time the
  // test out) — and must not poison the next run.
  ThreadPool pool(4);
  auto trace = UniformTrace(20'000, 600, 81);
  StackDistanceOptions options;
  options.num_shards = 8;
  options.min_shard_refs = 1;
  FaultSpec spec;
  spec.max_fires = 1;
  spec.code = StatusCode::kInternal;
  FaultInjector::Global().Arm("sd.merge.step", spec);
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto result = ComputeStackDistances(source, &pool, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  FaultInjector::Global().DisarmAll();

  // Recovery: the very next pass over the same source succeeds and is
  // still bit-identical to serial.
  VectorTraceSource retry_source = VectorTraceSource::View(trace);
  auto retry = ComputeStackDistances(retry_source, &pool, options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(*retry == SerialHistogram(trace));
}

TEST(ShardedMergeTest, MergeFaultSurfacesAfterEarlierShardsMerge) {
  // Same fault point, fired mid-merge: two shards have already been folded
  // into the result when the third step fails.
  ThreadPool pool(2);
  auto trace = UniformTrace(10'000, 400, 82);
  StackDistanceOptions options;
  options.num_shards = 4;
  options.min_shard_refs = 1;
  FaultSpec spec;
  spec.max_fires = 1;
  spec.skip_calls = 2;  // Let two shards merge first.
  spec.code = StatusCode::kInternal;
  uint64_t fires_before =
      FaultInjector::Global().counters("sd.merge.step").fires;
  FaultInjector::Global().Arm("sd.merge.step", spec);
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto result = ComputeStackDistances(source, &pool, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(FaultInjector::Global().counters("sd.merge.step").fires,
            fires_before + 1);
  FaultInjector::Global().DisarmAll();
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
