// One differential suite over every LRU fetch oracle. Each trace runs
// through the physical BufferPool, LruSimulator, the legacy
// StackDistanceSimulator, the StackDistanceKernel (default sizing, and a
// tiny window so compactions run) and ComputeSampledStackDistances at
// R = 1; all of them must report the same fetch count at every buffer
// size. The kernel's histogram must also equal the legacy one when the
// trace arrives in chunks of 1 to 17 references (around its 16-reference
// lookahead), with single Access calls between chunks, and at R = 0.5,
// where the raw sampled histogram must equal the legacy histogram of the
// hash-filtered trace at window hints 2 to 64. The adversarial families
// follow PAPERS.md: random walks on an access graph (Boyar et al.,
// relative interval analysis on access graphs) and interleaved
// sequential scans over overlapping ranges (cooperative scans /
// predictive buffer management), next to uniform, Zipf, sequential runs
// mixed with random jumps (the shape of index scans), ids that outgrow
// the kernel's table inside its lookahead, a cyclic loop and a single
// repeated page.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/lru_simulator.h"
#include "buffer/parallel_stack_distance.h"
#include "buffer/sampling.h"
#include "buffer/stack_distance.h"
#include "buffer/stack_distance_kernel.h"
#include "catalog/stats_catalog.h"
#include "epfis/lru_fit.h"
#include "epfis/online_lru_fit.h"
#include "epfis/trace_source.h"
#include "storage/disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace epfis {
namespace {

struct OracleCase {
  std::string name;
  std::vector<PageId> trace;
  uint64_t loop = 1;  // L: the family's cliff (loop length, scan count).
  std::vector<uint64_t> extra_sizes = {};  // Checked besides BufferSizes.
};

// Names the case in failure messages and test listings instead of a byte
// dump of the struct.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

std::vector<PageId> UniformTrace(size_t refs, uint32_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  for (size_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(pages)));
  }
  return trace;
}

std::vector<PageId> ZipfTrace(size_t refs, uint64_t pages, uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf = ZipfDistribution::Make(pages, 0.86).value();
  std::vector<PageId> trace;
  for (size_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(zipf.Sample(rng) - 1));
  }
  return trace;
}

// A random walk on an access graph: a ring of `nodes` pages where every
// page also has one random chord. Each step moves to the ring neighbours
// or across the chord, so reuse stays local but a chord can jump the walk
// to a far region of the ring.
std::vector<PageId> AccessGraphWalk(size_t steps, uint32_t nodes,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> chord(nodes);
  for (PageId& c : chord) c = static_cast<PageId>(rng.NextBounded(nodes));
  std::vector<PageId> trace;
  PageId at = 0;
  for (size_t i = 0; i < steps; ++i) {
    trace.push_back(at);
    switch (rng.NextBounded(3)) {
      case 0: at = (at + 1) % nodes; break;
      case 1: at = (at + nodes - 1) % nodes; break;
      default: at = chord[at]; break;
    }
  }
  return trace;
}

// `scans` sequential scans over overlapping ranges of a `pages`-page
// table, interleaved one reference at a time. Scan j starts at page
// j * stride and reads `length` pages, wrapping around the table.
std::vector<PageId> InterleavedScans(uint32_t scans, uint32_t pages,
                                     uint32_t stride, uint32_t length) {
  std::vector<PageId> trace;
  for (uint32_t i = 0; i < length; ++i) {
    for (uint32_t j = 0; j < scans; ++j) {
      trace.push_back(static_cast<PageId>((j * stride + i) % pages));
    }
  }
  return trace;
}

// Sequential runs of 1 to 8 pages from random starts, mixed with random
// jumps, like real index scans.
std::vector<PageId> RunsAndJumps(uint32_t pages, size_t refs, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  while (trace.size() < refs) {
    if (rng.NextBernoulli(0.3)) {
      PageId start = static_cast<PageId>(rng.NextBounded(pages));
      int run = 1 + static_cast<int>(rng.NextBounded(8));
      for (int r = 0; r < run && trace.size() < refs; ++r) {
        trace.push_back((start + r) % pages);
      }
    } else {
      trace.push_back(static_cast<PageId>(rng.NextBounded(pages)));
    }
  }
  return trace;
}

// New ids in rising order, up to four in each [2^r, 2^(r+1)), each after
// 20 re-references of random earlier ids. The first id of each range
// lies past the kernel's last-access table, so the table grows in the
// middle of a chunk, after the lookahead has met the id.
std::vector<PageId> GrowingIds(uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  std::vector<PageId> seen{0};
  for (PageId base = 1; base < 2'048; base *= 2) {
    for (PageId id = base; id < 2 * base; id += std::max(base / 4, 1u)) {
      for (int r = 0; r < 20; ++r) {
        trace.push_back(seen[rng.NextBounded(seen.size())]);
      }
      trace.push_back(id);
      seen.push_back(id);
    }
  }
  return trace;
}

std::vector<PageId> CyclicLoop(uint32_t loop, int rounds) {
  std::vector<PageId> trace;
  for (int r = 0; r < rounds; ++r) {
    for (PageId p = 0; p < loop; ++p) trace.push_back(p);
  }
  return trace;
}

std::vector<OracleCase> Cases() {
  std::vector<OracleCase> cases;
  for (uint64_t seed : {1u, 2u}) {
    std::string s = "_s" + std::to_string(seed);
    cases.push_back({"uniform" + s, UniformTrace(4'000, 300, seed), 100});
    cases.push_back({"zipf" + s, ZipfTrace(4'000, 500, seed), 50});
    cases.push_back({"access_graph" + s, AccessGraphWalk(4'000, 64, seed),
                     64});
  }
  cases.push_back({"interleaved_scans", InterleavedScans(5, 200, 37, 600),
                   5});
  // Runs of up to 8 pages; B on a Fibonacci ladder to 89.
  const std::vector<uint64_t> ladder{2, 3, 5, 8, 13, 21, 34, 55, 89};
  struct RunsSpec { uint32_t pages; size_t refs; uint64_t seed; };
  for (RunsSpec r : {RunsSpec{10, 500, 1}, RunsSpec{50, 2'000, 2},
                     RunsSpec{100, 5'000, 3}, RunsSpec{7, 300, 4},
                     RunsSpec{200, 3'000, 5}, RunsSpec{3, 1'000, 6}}) {
    cases.push_back({"runs_p" + std::to_string(r.pages) + "_s" +
                         std::to_string(r.seed),
                     RunsAndJumps(r.pages, r.refs, r.seed), 8, ladder});
  }
  // A 40-page table that every trace covers, at B = 1, 2, T/2, T, T + 3.
  for (uint64_t seed : {77u, 1u, 2u, 9001u}) {
    cases.push_back({"uni40_s" + std::to_string(seed),
                     UniformTrace(1'500, 40, seed), 2, {43}});
  }
  cases.push_back({"growing_ids", GrowingIds(3), 4});
  cases.push_back({"cyclic_loop", CyclicLoop(50, 40), 50});
  cases.push_back({"one_page", std::vector<PageId>(500, 7), 1});
  return cases;
}

// B = 1, L - 1, L, L + 1, sizes at and past the distinct count, and the
// case's own extra sizes.
std::vector<uint64_t> BufferSizes(const OracleCase& c, uint64_t distinct) {
  const uint64_t loop = c.loop;
  std::vector<uint64_t> sizes{1,        loop - 1,     loop,
                              loop + 1, distinct / 2, distinct,
                              distinct + 7};
  sizes.insert(sizes.end(), c.extra_sizes.begin(), c.extra_sizes.end());
  sizes.erase(std::remove(sizes.begin(), sizes.end(), uint64_t{0}),
              sizes.end());
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

// Feeds `trace` to `kernel` in chunks whose lengths cycle through 1..17,
// around the kernel's 16-reference lookahead; with `singles`, one Access
// call goes before each chunk.
void FeedInChunks(StackDistanceKernel& kernel,
                  const std::vector<PageId>& trace, bool singles) {
  size_t i = 0;
  for (size_t len = 1; i < trace.size(); len = len % 17 + 1) {
    if (singles) kernel.Access(trace[i++]);
    size_t n = std::min(len, trace.size() - i);
    kernel.AccessAll(trace.data() + i, n);
    i += n;
  }
}

class LruOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(LruOracleTest, AllOraclesAgreeAtEveryBufferSize) {
  const std::vector<PageId>& trace = GetParam().trace;

  StackDistanceSimulator legacy(trace.size());
  legacy.AccessAll(trace);
  StackDistanceKernel kernel(trace.size());
  kernel.AccessAll(trace);
  StackDistanceKernel compacting(/*expected_refs=*/16, /*window_hint=*/2);
  compacting.AccessAll(trace);
  EXPECT_GT(compacting.compactions(), 0u);
  EXPECT_TRUE(kernel.histogram() == legacy.histogram());
  EXPECT_TRUE(compacting.histogram() == legacy.histogram());
  for (bool singles : {false, true}) {
    StackDistanceKernel chunked(/*expected_refs=*/16, /*window_hint=*/64);
    FeedInChunks(chunked, trace, singles);
    EXPECT_TRUE(chunked.histogram() == legacy.histogram())
        << "singles=" << singles;
  }

  // A sampled run is the exact kernel over the hash-filtered trace.
  SamplingOptions half;
  half.rate = 0.5;
  std::vector<PageId> filtered;
  for (PageId p : trace) {
    if (SampleHash(p) < SampleThresholdForRate(half.rate)) {
      filtered.push_back(p);
    }
  }
  StackDistanceSimulator filtered_legacy(filtered.size() + 1);
  filtered_legacy.AccessAll(filtered);
  for (size_t window : {2u, 3u, 16u, 17u, 64u}) {
    StackDistanceKernel sampled_kernel(/*expected_refs=*/16, window, half);
    FeedInChunks(sampled_kernel, trace, /*singles=*/window % 2 == 1);
    EXPECT_TRUE(sampled_kernel.histogram() == filtered_legacy.histogram())
        << "window=" << window;
    EXPECT_EQ(sampled_kernel.sampling_summary().total_refs, trace.size());
  }
  StackDistanceOptions options;
  options.sampling.rate = 1.0;
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto sampled = ComputeSampledStackDistances(source, nullptr, options);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();

  DiskManager disk;
  PageId max_page = *std::max_element(trace.begin(), trace.end());
  for (PageId p = 0; p <= max_page; ++p) disk.AllocatePage();

  for (uint64_t b :
       BufferSizes(GetParam(), legacy.histogram().distinct_pages())) {
    SCOPED_TRACE("B=" + std::to_string(b));
    BufferPool pool(&disk, static_cast<size_t>(b));
    for (PageId page : trace) ASSERT_TRUE(pool.FetchPage(page).ok());
    const BufferPoolStats& stats = pool.stats();
    EXPECT_EQ(stats.requests, trace.size());
    EXPECT_EQ(stats.hits, stats.requests - stats.fetches);
    EXPECT_EQ(stats.evictions, stats.fetches > b ? stats.fetches - b : 0u);

    EXPECT_EQ(CountLruFetches(trace, static_cast<size_t>(b)), stats.fetches);
    EXPECT_EQ(legacy.Fetches(b), stats.fetches);
    EXPECT_EQ(kernel.Fetches(b), stats.fetches);
    EXPECT_EQ(compacting.Fetches(b), stats.fetches);
    EXPECT_EQ(sampled->Fetches(b), stats.fetches);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, LruOracleTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

// The kernel's last-access table and the sampled path's first-touch
// bitmap are dense arrays indexed by page id, so every feed into the
// kernel rejects ids at or above kPageIdLimit: a hostile trace must not
// size them. kInvalidPageId stays as a regression case: a kernel that
// used it as a hash table's empty key reported A = 2 and F(2) = 2 on
// {1, X, 2, X, 1}, where every LRU oracle gives A = 3 and F(2) = 4. The
// largest allowed id still works on every feed.
TEST(LruOracleReservedIdTest, EveryKernelFeedRejectsIt) {
  for (PageId x : {kInvalidPageId, kPageIdLimit, kPageIdLimit - 1}) {
    SCOPED_TRACE("id=" + std::to_string(x));
    const std::vector<PageId> trace{1, x, 2, x, 1};
    StackDistanceSimulator legacy;
    legacy.AccessAll(trace);
    EXPECT_EQ(legacy.distinct_pages(), 3u);
    EXPECT_EQ(legacy.Fetches(2), 4u);
    EXPECT_EQ(CountLruFetches(trace, 2), 4u);
    const bool allowed = x < kPageIdLimit;
    const StatusCode want =
        allowed ? StatusCode::kOk : StatusCode::kInvalidArgument;

    auto fit = RunLruFit(trace, 10, 3, "x");
    EXPECT_EQ(fit.status().code(), want);

    auto points = SampleFpfCurve(trace, 1, 3, BufferSchedule::kPaperLinear);
    EXPECT_EQ(points.status().code(), want);

    VectorTraceSource source = VectorTraceSource::View(trace);
    auto sampled = ComputeSampledStackDistances(source, nullptr);
    EXPECT_EQ(sampled.status().code(), want);

    StatsCatalog catalog;
    OnlineLruFitOptions options;
    options.table_pages = 10;
    OnlineLruFit engine("x", options, &catalog);
    EXPECT_EQ(engine.Ingest(trace).code(), want);
    // Nothing is absorbed from a rejected chunk.
    EXPECT_EQ(engine.total_refs(), allowed ? trace.size() : 0u);

    if (allowed) {
      ASSERT_TRUE(points.ok());
      for (const FpfPoint& p : *points) {
        EXPECT_EQ(p.fetches, legacy.Fetches(p.buffer_size));
      }
      ASSERT_TRUE(sampled.ok());
      for (uint64_t b : {1u, 2u, 3u}) {
        EXPECT_EQ(sampled->Fetches(b), legacy.Fetches(b)) << "b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace epfis
