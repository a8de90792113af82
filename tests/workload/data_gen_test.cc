#include "workload/data_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

#include "buffer/stack_distance.h"
#include "buffer/stack_distance_kernel.h"
#include "exec/index_scan.h"
#include "harness/experiment.h"
#include "util/zipf.h"
#include "workload/gwl.h"
#include "workload/scan_gen.h"

namespace epfis {
namespace {

SyntheticSpec SmallSpec() {
  SyntheticSpec spec;
  spec.num_records = 4000;
  spec.num_distinct = 200;
  spec.records_per_page = 20;
  spec.theta = 0.0;
  spec.window_fraction = 0.1;
  spec.noise = 0.05;
  spec.seed = 5;
  return spec;
}

TEST(GeneratePlacementTest, ValidatesSpec) {
  SyntheticSpec spec = SmallSpec();
  spec.num_records = 0;
  EXPECT_FALSE(GeneratePlacement(spec).ok());

  spec = SmallSpec();
  spec.num_distinct = 0;
  EXPECT_FALSE(GeneratePlacement(spec).ok());

  spec = SmallSpec();
  spec.num_distinct = spec.num_records + 1;
  EXPECT_FALSE(GeneratePlacement(spec).ok());

  spec = SmallSpec();
  spec.records_per_page = 0;
  EXPECT_FALSE(GeneratePlacement(spec).ok());

  spec = SmallSpec();
  spec.window_fraction = 1.5;
  EXPECT_FALSE(GeneratePlacement(spec).ok());

  spec = SmallSpec();
  spec.noise = 1.0;
  EXPECT_FALSE(GeneratePlacement(spec).ok());
}

TEST(GeneratePlacementTest, ShapeInvariants) {
  SyntheticSpec spec = SmallSpec();
  auto placement = GeneratePlacement(spec);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->page_of_record.size(), spec.num_records);
  EXPECT_EQ(placement->key_counts.size(), spec.num_distinct);
  EXPECT_EQ(placement->num_pages,
            (spec.num_records + spec.records_per_page - 1) /
                spec.records_per_page);
  uint64_t total = std::accumulate(placement->key_counts.begin(),
                                   placement->key_counts.end(), 0ULL);
  EXPECT_EQ(total, spec.num_records);

  // No page receives more than R records.
  std::vector<uint32_t> per_page(placement->num_pages, 0);
  for (uint32_t p : placement->page_of_record) {
    ASSERT_LT(p, placement->num_pages);
    ++per_page[p];
  }
  for (uint32_t c : per_page) EXPECT_LE(c, spec.records_per_page);
  // All pages fully used except possibly the tail (N divisible here).
  for (uint32_t c : per_page) EXPECT_EQ(c, spec.records_per_page);
}

TEST(GeneratePlacementTest, DeterministicPerSeed) {
  SyntheticSpec spec = SmallSpec();
  auto a = GeneratePlacement(spec);
  auto b = GeneratePlacement(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->page_of_record, b->page_of_record);
  EXPECT_EQ(a->key_counts, b->key_counts);

  spec.seed = 6;
  auto c = GeneratePlacement(spec);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->page_of_record, c->page_of_record);
}

TEST(GeneratePlacementTest, KZeroNoNoiseIsPerfectlyClustered) {
  SyntheticSpec spec = SmallSpec();
  spec.window_fraction = 0.0;
  spec.noise = 0.0;
  auto placement = GeneratePlacement(spec);
  ASSERT_TRUE(placement.ok());
  // Sequential fill: page ordinals are nondecreasing in record order.
  for (size_t i = 1; i < placement->page_of_record.size(); ++i) {
    ASSERT_GE(placement->page_of_record[i], placement->page_of_record[i - 1]);
  }
  EXPECT_DOUBLE_EQ(MeasureClusteringFactor(*placement), 1.0);
}

TEST(GeneratePlacementTest, ClusteringDecreasesWithK) {
  SyntheticSpec spec = SmallSpec();
  spec.noise = 0.0;
  double prev_c = 1.1;
  for (double k : {0.0, 0.05, 0.2, 1.0}) {
    spec.window_fraction = k;
    auto placement = GeneratePlacement(spec);
    ASSERT_TRUE(placement.ok());
    double c = MeasureClusteringFactor(*placement);
    EXPECT_LT(c, prev_c + 0.02) << "k=" << k;  // Allow small wiggle.
    prev_c = c;
  }
  EXPECT_LT(prev_c, 0.3);  // K=1 is close to random: low clustering.
}

TEST(GeneratePlacementTest, NoiseReducesClustering) {
  SyntheticSpec spec = SmallSpec();
  spec.window_fraction = 0.0;
  spec.noise = 0.0;
  auto clean = GeneratePlacement(spec);
  spec.noise = 0.10;
  auto noisy = GeneratePlacement(spec);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(noisy.ok());
  EXPECT_LT(MeasureClusteringFactor(*noisy),
            MeasureClusteringFactor(*clean));
}

TEST(GeneratePlacementTest, SkewedCountsWithTheta) {
  SyntheticSpec spec = SmallSpec();
  spec.theta = 0.86;
  auto placement = GeneratePlacement(spec);
  ASSERT_TRUE(placement.ok());
  // The counts are the Zipf apportionment in a seeded key order.
  std::vector<uint64_t> sorted = placement->key_counts;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  auto zipf = ZipfDistribution::Make(spec.num_distinct, spec.theta);
  ASSERT_TRUE(zipf.ok());
  EXPECT_EQ(sorted, zipf->ApportionCounts(spec.num_records));
  EXPECT_GT(sorted.front(), sorted.back());
  for (uint64_t c : placement->key_counts) EXPECT_GE(c, 1u);
}

TEST(PlacementTraceTest, MatchesRecordOrder) {
  SyntheticSpec spec = SmallSpec();
  auto placement = GeneratePlacement(spec);
  ASSERT_TRUE(placement.ok());
  std::vector<PageId> trace = PlacementTrace(*placement);
  ASSERT_EQ(trace.size(), placement->page_of_record.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], placement->page_of_record[i]);
  }
}

TEST(MaterializeDatasetTest, DatasetMatchesPlacement) {
  SyntheticSpec spec = SmallSpec();
  auto placement = GeneratePlacement(spec);
  ASSERT_TRUE(placement.ok());
  auto dataset = MaterializeDataset(spec, *placement);
  ASSERT_TRUE(dataset.ok());

  EXPECT_EQ((*dataset)->num_records(), spec.num_records);
  EXPECT_EQ((*dataset)->num_pages(), placement->num_pages);
  EXPECT_EQ((*dataset)->num_distinct(), spec.num_distinct);
  EXPECT_EQ((*dataset)->index()->num_entries(), spec.num_records);
  ASSERT_TRUE((*dataset)->index()->CheckIntegrity().ok());

  // The index trace equals the placement trace up to page-id mapping:
  // page ordinal i materializes as PageId i (pages appended in order),
  // except entries within one key are RID-sorted. Compare multisets per
  // key instead of the exact sequence.
  auto entries = (*dataset)->IndexEntries();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), spec.num_records);

  size_t rec = 0;
  for (uint64_t key = 0; key < placement->key_counts.size(); ++key) {
    std::multiset<PageId> expected, actual;
    for (uint64_t c = 0; c < placement->key_counts[key]; ++c, ++rec) {
      expected.insert(placement->page_of_record[rec]);
      actual.insert((*entries)[rec].rid.page_id);
      EXPECT_EQ((*entries)[rec].key, static_cast<int64_t>(key) + 1);
    }
    ASSERT_EQ(expected, actual) << "key " << key;
  }
}

TEST(MaterializeDatasetTest, RecordsReadBackWithCorrectKeys) {
  SyntheticSpec spec = SmallSpec();
  spec.num_records = 500;
  spec.num_distinct = 50;
  auto dataset = GenerateSynthetic(spec);
  ASSERT_TRUE(dataset.ok());
  // Spot-check: every index entry points at a record storing its key.
  uint64_t checked = 0;
  auto it = (*dataset)->index()->Begin();
  ASSERT_TRUE(it.ok());
  while (it->Valid() && checked < 100) {
    auto record = (*dataset)->table()->Get(it->entry().rid);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->value(0), it->entry().key);
    ASSERT_TRUE(it->Next().ok());
    ++checked;
  }
}

TEST(DatasetTest, CumCountsAndRangeQueries) {
  SyntheticSpec spec = SmallSpec();
  spec.num_records = 1000;
  spec.num_distinct = 10;
  spec.theta = 0.0;
  auto dataset = GenerateSynthetic(spec);
  ASSERT_TRUE(dataset.ok());
  const auto& counts = (*dataset)->key_counts();
  const auto& cum = (*dataset)->cum_counts();
  ASSERT_EQ(counts.size(), 10u);
  EXPECT_EQ(cum.back(), 1000u);

  EXPECT_EQ((*dataset)->RecordsInRange(1, 10), 1000u);
  EXPECT_EQ((*dataset)->RecordsInRange(1, 1), counts[0]);
  EXPECT_EQ((*dataset)->RecordsInRange(3, 5),
            counts[2] + counts[3] + counts[4]);
  EXPECT_EQ((*dataset)->RecordsInRange(5, 3), 0u);
  EXPECT_EQ((*dataset)->RecordsInRange(-5, 100), 1000u);  // Clamped.
}

TEST(DatasetTest, RangePageTraceMatchesFullTraceSlice) {
  // The fact the harnesses' ground truth rests on: a range scan's
  // reference string is a slice of the key-ordered index entries, kept
  // entry by entry under a sargable predicate, and the kernel's fetch
  // counts on it equal the reference simulator's at every swept size.
  SyntheticSpec spec = SmallSpec();
  spec.num_records = 20000;
  spec.theta = 0.86;  // Skewed key counts, so the slice offsets vary.
  spec.window_fraction = 0.3;
  auto dataset = GenerateSynthetic(spec);
  ASSERT_TRUE(dataset.ok());
  auto entries = (*dataset)->IndexEntries();
  ASSERT_TRUE(entries.ok());

  const int64_t last = static_cast<int64_t>((*dataset)->num_distinct());
  std::vector<std::pair<int64_t, int64_t>> ranges = {
      {1, 1}, {last, last}, {1, last}, {-5, 3}, {last - 2, last + 9}, {7, 6}};
  ScanGenerator gen(dataset->get(), 3);
  for (int i = 0; i < 120; ++i) {
    ScanRange scan = gen.Next(ScanMix::kMixed);
    ranges.emplace_back(scan.lo_key, scan.hi_key);
  }
  std::vector<uint64_t> sizes =
      SweepBufferSizes((*dataset)->num_pages(), PaperBufferFractions(), 1);
  SargableFilter sargable(0.3, 11);
  const SargableFilter* filters[] = {nullptr, &sargable};
  for (const SargableFilter* filter : filters) {
    for (const auto& [lo, hi] : ranges) {
      auto slice = SliceScanTrace(**dataset, *entries, lo, hi, filter);
      auto walk = CollectScanTrace(*(*dataset)->index(),
                                   KeyRange::Closed(lo, hi), filter);
      ASSERT_TRUE(slice.ok() && walk.ok());
      ASSERT_EQ(*slice, *walk) << "keys [" << lo << ", " << hi << "]";
      StackDistanceKernel kernel(slice->size());
      kernel.AccessAll(*slice);
      StackDistanceSimulator reference(walk->size() + 1);
      reference.AccessAll(*walk);
      for (uint64_t b : sizes) {
        ASSERT_EQ(kernel.Fetches(b), reference.Fetches(b))
            << "keys [" << lo << ", " << hi << "], B = " << b;
      }
    }
  }
  // Entries that fall short of the key counts are refused, not overread.
  entries->pop_back();
  EXPECT_FALSE(SliceScanTrace(**dataset, *entries, 1, last).ok());
}

TEST(DatasetTest, CreateValidatesKeyCounts) {
  EXPECT_FALSE(Dataset::Create("x", 10, {}).ok());
  EXPECT_FALSE(Dataset::Create("x", 10, {5, 0, 3}).ok());
}

}  // namespace
}  // namespace epfis
