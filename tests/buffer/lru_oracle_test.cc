// One differential suite over every LRU fetch oracle. Each trace runs
// through the physical BufferPool, LruSimulator, the legacy
// StackDistanceSimulator, the StackDistanceKernel (default sizing, and a
// tiny window so compactions run) and ComputeSampledStackDistances at
// R = 1; all of them must report the same fetch count at every buffer
// size. The adversarial families follow PAPERS.md: random walks on an
// access graph (Boyar et al., relative interval analysis on access
// graphs) and interleaved sequential scans over overlapping ranges
// (cooperative scans / predictive buffer management), next to uniform,
// Zipf, a cyclic loop and a single repeated page.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/lru_simulator.h"
#include "buffer/parallel_stack_distance.h"
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
  cases.push_back({"cyclic_loop", CyclicLoop(50, 40), 50});
  cases.push_back({"one_page", std::vector<PageId>(500, 7), 1});
  return cases;
}

// B = 1, L - 1, L, L + 1, and sizes at and past the distinct count.
std::vector<uint64_t> BufferSizes(uint64_t loop, uint64_t distinct) {
  std::vector<uint64_t> sizes{1,        loop - 1,     loop,
                              loop + 1, distinct / 2, distinct,
                              distinct + 7};
  sizes.erase(std::remove(sizes.begin(), sizes.end(), uint64_t{0}),
              sizes.end());
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
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
  StackDistanceOptions options;
  options.sampling.rate = 1.0;
  VectorTraceSource source = VectorTraceSource::View(trace);
  auto sampled = ComputeSampledStackDistances(source, nullptr, options);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();

  DiskManager disk;
  PageId max_page = *std::max_element(trace.begin(), trace.end());
  for (PageId p = 0; p <= max_page; ++p) disk.AllocatePage();

  for (uint64_t b :
       BufferSizes(GetParam().loop, legacy.histogram().distinct_pages())) {
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
