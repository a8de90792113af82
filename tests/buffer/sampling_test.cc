#include "buffer/sampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "buffer/parallel_stack_distance.h"
#include "buffer/stack_distance.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/trace_source.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace epfis {
namespace {

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

StackDistanceHistogram ExactHistogram(const std::vector<PageId>& trace) {
  StackDistanceKernel kernel(trace.size());
  kernel.AccessAll(trace);
  return kernel.histogram();
}

TEST(SamplingOptionsTest, ValidateAndEnabled) {
  SamplingOptions options;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_FALSE(options.enabled());  // Defaults are the exact pass.

  options.rate = 0.5;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_TRUE(options.enabled());

  options.rate = 1.0;
  options.max_pages = 100;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_TRUE(options.enabled());  // Adaptive cap alone enables the filter.

  for (double bad : {0.0, -0.25, 1.5,
                     std::numeric_limits<double>::quiet_NaN()}) {
    SamplingOptions invalid;
    invalid.rate = bad;
    EXPECT_EQ(invalid.Validate().code(), StatusCode::kInvalidArgument)
        << "rate=" << bad;
  }
}

TEST(SamplingTest, ThresholdForRateEdges) {
  EXPECT_EQ(SampleThresholdForRate(1.0), kSampleModulus);
  EXPECT_EQ(SampleThresholdForRate(0.5), kSampleModulus / 2);
  // Even absurdly small rates keep at least one hash value qualifying.
  EXPECT_EQ(SampleThresholdForRate(1e-30), 1u);
  // Hashes land inside the modulus.
  for (PageId p = 0; p < 10'000; ++p) {
    ASSERT_LT(SampleHash(p), kSampleModulus);
  }
}

// The satellite property: rate 1.0 is not "approximately" exact — it is
// the exact kernel, bit for bit, at every window hint (i.e. across
// compaction schedules).
TEST(SamplingTest, RateOneIsBitIdenticalToExactKernel) {
  auto uniform = UniformTrace(10'000, 300, 7);
  auto zipf = ZipfTrace(10'000, 500, 0.86, 8);
  for (const auto& trace : {uniform, zipf}) {
    StackDistanceHistogram exact = ExactHistogram(trace);
    for (size_t window : {size_t{0}, size_t{2}, size_t{7}, size_t{64}}) {
      SamplingOptions options;
      options.rate = 1.0;
      StackDistanceKernel kernel(trace.size(), window, options);
      kernel.AccessAll(trace);
      EXPECT_TRUE(kernel.histogram() == exact) << "window=" << window;
      SamplingSummary summary = kernel.sampling_summary();
      EXPECT_FALSE(summary.active());
      EXPECT_EQ(summary.total_refs, trace.size());
      EXPECT_EQ(summary.sampled_refs, trace.size());
      EXPECT_DOUBLE_EQ(summary.effective_rate, 1.0);
      // The rescaling wrapper is a pass-through on an exact run.
      SampledStackDistances result = kernel.sampled_result();
      for (uint64_t b : {0ULL, 1ULL, 17ULL, 100ULL, 100000ULL}) {
        EXPECT_EQ(result.Fetches(b), exact.Fetches(b)) << "b=" << b;
      }
      EXPECT_EQ(result.distinct_pages(), exact.distinct_pages());
    }
  }
}

// An adaptive cap at or above the distinct-page count never triggers, so
// the run must also be bit-identical — including when tiny windows force
// compactions mid-trace.
TEST(SamplingTest, AdaptiveCapAboveDistinctIsBitIdentical) {
  auto trace = ZipfTrace(8'000, 400, 0.86, 9);
  StackDistanceHistogram exact = ExactHistogram(trace);
  uint64_t distinct = exact.distinct_pages();
  for (uint64_t cap : {distinct, distinct + 1, distinct * 10}) {
    for (size_t window : {size_t{0}, size_t{2}, size_t{7}, size_t{64}}) {
      SamplingOptions options;
      options.max_pages = cap;
      StackDistanceKernel kernel(trace.size(), window, options);
      kernel.AccessAll(trace);
      EXPECT_TRUE(kernel.histogram() == exact)
          << "cap=" << cap << " window=" << window;
      SamplingSummary summary = kernel.sampling_summary();
      EXPECT_FALSE(summary.active());
      EXPECT_EQ(summary.threshold_drops, 0u);
      EXPECT_EQ(summary.evicted_pages, 0u);
      EXPECT_DOUBLE_EQ(summary.effective_rate, 1.0);
    }
  }
}

// The semantic anchor of the whole design: a fixed-rate sampled run is
// EXACTLY the unmodified kernel run over the hash-filtered sub-trace —
// the kernel's own histogram is the raw sub-trace histogram, bit for bit
// — and sampled_result() moves each distance bucket d to
// 1 + round((d - 1) * (P - 1)/(K - 1)), the realized page ratio between
// the exact distinct count P (tracked in the first-touch bitmap) and the
// sampled distinct count K. No statistical tolerance — the filter is
// deterministic, so both equalities are exact.
TEST(SamplingTest, FixedRateMatchesPrefilteredExactKernel) {
  auto trace = ZipfTrace(20'000, 1'000, 0.86, 10);
  uint64_t true_distinct = ExactHistogram(trace).distinct_pages();
  for (double rate : {0.5, 0.25, 0.05}) {
    uint64_t threshold = SampleThresholdForRate(rate);
    std::vector<PageId> filtered;
    for (PageId p : trace) {
      if (SampleHash(p) < threshold) filtered.push_back(p);
    }
    ASSERT_FALSE(filtered.empty());
    StackDistanceHistogram sub = ExactHistogram(filtered);

    SamplingOptions options;
    options.rate = rate;
    StackDistanceKernel kernel(trace.size(), 0, options);
    kernel.AccessAll(trace);
    EXPECT_TRUE(kernel.histogram() == sub) << "rate=" << rate;

    SamplingSummary summary = kernel.sampling_summary();
    EXPECT_EQ(summary.total_refs, trace.size());
    EXPECT_EQ(summary.sampled_refs, filtered.size());
    EXPECT_EQ(summary.exact_distinct, true_distinct);
    EXPECT_DOUBLE_EQ(summary.effective_rate,
                     static_cast<double>(threshold) /
                         static_cast<double>(kSampleModulus));
    EXPECT_TRUE(summary.active());

    double factor = SampledDistanceScale(true_distinct, sub.cold_misses(),
                                         1.0 / summary.effective_rate);
    StackDistanceHistogram expected = RescaleSampledDistances(sub, factor);
    SampledStackDistances result = kernel.sampled_result();
    EXPECT_TRUE(result.histogram == expected) << "rate=" << rate;
    // The exact cold count pins the rescaled curve's endpoints: distinct
    // pages are exact, and at a buffer holding the whole working set the
    // estimate collapses to exactly the cold misses, like the true curve.
    EXPECT_EQ(result.distinct_pages(), true_distinct);
    EXPECT_EQ(result.Fetches(true_distinct), true_distinct);
  }
}

// Sampled kernel runs are insensitive to chunking and compaction: feeding
// the trace in ragged chunks with a tiny window produces the same
// histogram as one whole-trace call. Fixed-rate and adaptive mode filter
// on separate paths in AccessAll (a batched prefilter vs. a per-reference
// check against a moving threshold), so both are fed.
TEST(SamplingTest, SampledChunkedAccessEqualsWholeTrace) {
  auto trace = ZipfTrace(8'192, 600, 0.86, 11);
  SamplingOptions fixed_rate;
  fixed_rate.rate = 0.2;
  SamplingOptions adaptive;
  adaptive.max_pages = 128;
  for (const SamplingOptions& options : {fixed_rate, adaptive}) {
    SCOPED_TRACE(options.max_pages > 0 ? "adaptive" : "fixed-rate");
    StackDistanceKernel whole(trace.size(), 0, options);
    whole.AccessAll(trace);
    StackDistanceKernel chunked(16, 32, options);
    for (size_t i = 0; i < trace.size(); i += 777) {
      size_t n = std::min<size_t>(777, trace.size() - i);
      chunked.AccessAll(trace.data() + i, n);
    }
    EXPECT_TRUE(whole.histogram() == chunked.histogram());
    EXPECT_TRUE(whole.sampled_result().histogram ==
                chunked.sampled_result().histogram);
    SamplingSummary a = whole.sampling_summary();
    SamplingSummary b = chunked.sampling_summary();
    EXPECT_EQ(a.total_refs, b.total_refs);
    EXPECT_EQ(a.sampled_refs, b.sampled_refs);
    EXPECT_EQ(a.evicted_pages, b.evicted_pages);
    if (options.max_pages > 0) {
      // The eviction path actually ran, on both feeds.
      EXPECT_GT(b.evicted_pages, 0u);
      EXPECT_LE(chunked.sampled_pages(), options.max_pages);
    }
  }
}

// Serial and sharded fixed-rate runs agree exactly for every shard count:
// both accumulate the raw sampled-domain histogram over the same filtered
// sub-trace and apply the same wrap-time rescale (realized page ratio
// from the same first-touch bitmap), so the results are equal, not just
// statistically close.
TEST(SamplingTest, SerialAndParallelSampledRunsAgree) {
  ThreadPool pool(3);
  auto trace = ZipfTrace(25'000, 1'500, 0.86, 12);
  for (double rate : {0.5, 0.1}) {
    StackDistanceOptions serial_options;
    serial_options.sampling.rate = rate;
    VectorTraceSource serial_source = VectorTraceSource::View(trace);
    auto serial =
        ComputeSampledStackDistances(serial_source, nullptr, serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    for (size_t shards : {2u, 3u, 5u, 13u}) {
      StackDistanceOptions options;
      options.num_shards = shards;
      options.min_shard_refs = 1;
      options.sampling.rate = rate;
      VectorTraceSource source = VectorTraceSource::View(trace);
      auto parallel = ComputeSampledStackDistances(source, &pool, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_TRUE(parallel->histogram == serial->histogram)
          << "rate=" << rate << " shards=" << shards;
      EXPECT_EQ(parallel->sampling.total_refs, serial->sampling.total_refs);
      EXPECT_EQ(parallel->sampling.sampled_refs,
                serial->sampling.sampled_refs);
      EXPECT_EQ(parallel->sampling.exact_distinct,
                serial->sampling.exact_distinct);
      EXPECT_DOUBLE_EQ(parallel->sampling.effective_rate,
                       serial->sampling.effective_rate);
    }
  }
}

// With sampling disabled the sampled entry point is the exact path plus
// provenance, parallel included.
TEST(SamplingTest, DisabledSamplingMatchesExactEntryPoint) {
  ThreadPool pool(2);
  auto trace = ZipfTrace(12'000, 800, 0.86, 13);
  StackDistanceHistogram exact = ExactHistogram(trace);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    StackDistanceOptions options;
    options.min_shard_refs = 1;
    VectorTraceSource source = VectorTraceSource::View(trace);
    auto result = ComputeSampledStackDistances(source, p, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->histogram == exact);
    EXPECT_FALSE(result->sampling.active());
    EXPECT_EQ(result->accesses(), trace.size());
  }
}

TEST(SamplingTest, AdaptiveCapBoundsSampledPagesAndDropsThreshold) {
  // 4'000 distinct pages against a cap of 64: the threshold must drop,
  // pages must be evicted, and the sampled set must respect the cap at
  // every point in the stream.
  auto trace = UniformTrace(60'000, 4'000, 14);
  SamplingOptions options;
  options.max_pages = 64;
  StackDistanceKernel kernel(trace.size(), 0, options);
  for (size_t i = 0; i < trace.size(); i += 1'000) {
    size_t n = std::min<size_t>(1'000, trace.size() - i);
    kernel.AccessAll(trace.data() + i, n);
    ASSERT_LE(kernel.sampled_pages(), 64u) << "at ref " << i + n;
  }
  SamplingSummary summary = kernel.sampling_summary();
  EXPECT_TRUE(summary.active());
  EXPECT_GT(summary.threshold_drops, 0u);
  EXPECT_GT(summary.evicted_pages, 0u);
  EXPECT_LT(summary.effective_rate, 1.0);
  EXPECT_GT(summary.effective_rate, 0.0);
  EXPECT_EQ(summary.total_refs, trace.size());
  EXPECT_LT(summary.sampled_refs, summary.total_refs);

  // The rescaled estimates stay physical: Fetches(0) is the exact count,
  // larger buffers never fetch more, nothing exceeds the total.
  SampledStackDistances result = kernel.sampled_result();
  EXPECT_EQ(result.Fetches(0), trace.size());
  uint64_t prev = result.Fetches(1);
  for (uint64_t b : {4ULL, 16ULL, 64ULL, 256ULL, 4096ULL}) {
    uint64_t f = result.Fetches(b);
    EXPECT_LE(f, prev) << "b=" << b;
    EXPECT_LE(f, trace.size());
    prev = f;
  }
}

// Regression: adaptive-mode counts are self-normalized by the realized
// sampled-reference ratio. References are kept at whatever rate was in
// effect when they arrived, so dividing raw counts by the final
// (smallest) rate used to inflate every estimate — F(b_min) saturated
// at N and the clustering statistic LRU-Fit derives from it clamped to
// zero even at generous caps.
TEST(SamplingTest, AdaptiveEstimatesAreSelfNormalized) {
  auto trace = ZipfTrace(200'000, 10'000, 0.86, 18);
  StackDistanceHistogram exact = ExactHistogram(trace);
  SamplingOptions options;
  options.max_pages = 2'048;
  StackDistanceKernel kernel(trace.size(), 0, options);
  kernel.AccessAll(trace);
  SampledStackDistances sampled = kernel.sampled_result();
  ASSERT_TRUE(sampled.sampling.active());
  ASSERT_GT(sampled.sampling.threshold_drops, 0u);
  for (uint64_t b : {100ULL, 1'000ULL, 5'000ULL}) {
    double e = static_cast<double>(exact.Fetches(b));
    double s = static_cast<double>(sampled.Fetches(b));
    EXPECT_LT(std::abs(s - e) / e, 0.15) << "b=" << b;
  }
  double distinct_err =
      std::abs(static_cast<double>(sampled.distinct_pages()) -
               static_cast<double>(exact.distinct_pages())) /
      static_cast<double>(exact.distinct_pages());
  EXPECT_LT(distinct_err, 0.15);
}

// Composing a starting rate with the cap: the run starts at the fixed
// rate and only drops further; the effective rate can never exceed the
// requested one.
TEST(SamplingTest, AdaptiveComposesWithStartingRate) {
  auto trace = UniformTrace(40'000, 4'000, 15);
  SamplingOptions options;
  options.rate = 0.5;
  options.max_pages = 32;
  StackDistanceKernel kernel(trace.size(), 0, options);
  kernel.AccessAll(trace);
  EXPECT_LE(kernel.sampled_pages(), 32u);
  SamplingSummary summary = kernel.sampling_summary();
  EXPECT_LE(summary.effective_rate, 0.5);
  EXPECT_DOUBLE_EQ(summary.requested_rate, 0.5);
  EXPECT_EQ(summary.requested_max_pages, 32u);
}

// The headline accuracy property on the paper's trace shape: a 10%
// sample of a Zipf(0.86) trace tracks the exact FPF curve within a few
// percent across the full buffer range. The sampled-page count matters —
// SHARDS accuracy scales with sampled *pages*, so the trace needs a
// working set large enough that R=0.1 leaves thousands of them (the
// bench gate covers the R=0.01 regime on the full 10M-ref trace). The
// sampling hash is deterministic, so this bound cannot flake.
TEST(SamplingTest, SampledFpfCurveTracksExactCurve) {
  auto trace = ZipfTrace(500'000, 50'000, 0.86, 16);
  StackDistanceHistogram exact = ExactHistogram(trace);

  SamplingOptions options;
  options.rate = 0.1;
  StackDistanceKernel kernel(trace.size(), 0, options);
  kernel.AccessAll(trace);
  SampledStackDistances sampled = kernel.sampled_result();
  ASSERT_GT(sampled.sampling.sampled_refs, 10'000u);

  double total_rel_err = 0.0;
  int points = 0;
  for (uint64_t b = 500; b <= 50'000; b += 4'500) {
    double e = static_cast<double>(exact.Fetches(b));
    double s = static_cast<double>(sampled.Fetches(b));
    ASSERT_GT(e, 0.0);
    total_rel_err += std::abs(s - e) / e;
    ++points;
  }
  EXPECT_LT(total_rel_err / points, 0.05)
      << "mean relative FPF error at R=0.1";

  // Fixed-rate runs track first touches of every page, so the distinct
  // count — and with it the whole-working-set end of the curve — is
  // exact, not estimated.
  EXPECT_EQ(sampled.distinct_pages(), exact.distinct_pages());
  EXPECT_EQ(sampled.Fetches(exact.distinct_pages()),
            exact.Fetches(exact.distinct_pages()));
}

TEST(SamplingTest, ErrorTaxonomy) {
  ThreadPool pool(2);
  std::vector<PageId> empty;
  std::vector<PageId> tiny{1, 2, 3, 1};

  // Empty trace: InvalidArgument, sampled or not.
  {
    VectorTraceSource source = VectorTraceSource::View(empty);
    StackDistanceOptions options;
    options.sampling.rate = 0.5;
    auto result = ComputeSampledStackDistances(source, nullptr, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }

  // Invalid rate: InvalidArgument before any work.
  for (double bad : {0.0, -1.0, 1.5}) {
    VectorTraceSource source = VectorTraceSource::View(tiny);
    StackDistanceOptions options;
    options.sampling.rate = bad;
    auto result = ComputeSampledStackDistances(source, nullptr, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "rate=" << bad;
  }

  // The exact entry point refuses to silently downgrade to an estimate.
  {
    VectorTraceSource source = VectorTraceSource::View(tiny);
    StackDistanceOptions options;
    options.sampling.rate = 0.5;
    auto result = ComputeStackDistances(source, &pool, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }

  // A non-empty trace in which nothing survives the filter: build it
  // from pages that hash ABOVE the minimum threshold, so the outcome is
  // deterministic. FailedPrecondition distinguishes "rate too low for
  // this trace" from a caller bug.
  {
    uint64_t threshold = SampleThresholdForRate(1e-12);
    ASSERT_EQ(threshold, 1u);
    std::vector<PageId> unsampled;
    for (PageId p = 0; unsampled.size() < 100 && p < 1'000'000; ++p) {
      if (SampleHash(p) >= threshold) unsampled.push_back(p);
    }
    ASSERT_EQ(unsampled.size(), 100u);
    VectorTraceSource source = VectorTraceSource::View(unsampled);
    StackDistanceOptions options;
    options.sampling.rate = 1e-12;
    auto result = ComputeSampledStackDistances(source, nullptr, options);
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

// Pre-sizing under sampling (satellite): a kernel told to expect a huge
// trace at a tiny rate must still work from a small initial table — this
// exercises the `expected_refs * rate` sizing path end to end.
TEST(SamplingTest, PreSizingUnderSamplingStaysCorrect) {
  auto trace = ZipfTrace(30'000, 2'000, 0.86, 17);
  SamplingOptions options;
  options.rate = 0.01;
  StackDistanceKernel small_hint(trace.size(), 0, options);
  small_hint.AccessAll(trace);
  StackDistanceKernel huge_hint(100'000'000, 0, options);
  huge_hint.AccessAll(trace);
  EXPECT_TRUE(small_hint.histogram() == huge_hint.histogram());
  EXPECT_EQ(small_hint.sampling_summary().sampled_refs,
            huge_hint.sampling_summary().sampled_refs);
}

}  // namespace
}  // namespace epfis
