// EstIo::EstimateBatch: bit-identity with the single-probe entry points,
// probe-order independence, and per-probe degradation semantics.
#include "epfis/est_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog_snapshot.h"

namespace epfis {
namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages,
                     double clustering) {
  IndexStats stats;
  stats.index_name = name;
  stats.table_pages = pages;
  stats.table_records = pages * 40;
  stats.distinct_keys = pages * 2;
  stats.pages_accessed = pages;
  stats.b_min = 12;
  stats.b_max = pages;
  stats.f_min = static_cast<double>(pages) * 1.2;
  stats.clustering = clustering;
  stats.fpf =
      PiecewiseLinear::FromKnots({{12, static_cast<double>(pages) * 30},
                                  {static_cast<double>(pages) * 0.1,
                                   static_cast<double>(pages) * 12},
                                  {static_cast<double>(pages) * 0.3,
                                   static_cast<double>(pages) * 4},
                                  {static_cast<double>(pages),
                                   static_cast<double>(pages) * 1.2}})
          .value();
  return stats;
}

std::shared_ptr<const CatalogSnapshot> MakeSnapshot() {
  std::map<std::string, IndexStats> entries;
  entries.emplace("aaa.key", MakeStats("aaa.key", 1000, 0.9));
  entries.emplace("bbb.key", MakeStats("bbb.key", 4000, 0.3));
  entries.emplace("ccc.key", MakeStats("ccc.key", 700, 0.0));
  return CatalogSnapshot::Build(std::move(entries), {}, 1);
}

TableShape ShapeFor(const CatalogSnapshot& snapshot,
                    CatalogSnapshot::Handle handle) {
  const IndexStatsView& view = snapshot.ViewAt(handle);
  return TableShape{view.table_pages, view.table_records};
}

// The core acceptance gate: for every (index, sigma, B) in a sweep, the
// batch result is *exactly* (==, not nearly) the single-probe snapshot
// overload, which is itself exactly EstIo::Estimate on the same stats.
TEST(EstIoBatchTest, BitIdenticalToSingleProbeAcrossSweep) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  const std::vector<double> sigmas = {0.001, 0.01, 0.1, 0.25,
                                      0.5,   0.75, 1.0};
  const std::vector<uint64_t> buffers = {1,   8,    64,   256,
                                         700, 1000, 4000, 100000};

  std::vector<BatchProbe> probes;
  for (const std::string& name : snapshot->IndexNames()) {
    CatalogSnapshot::Handle handle = snapshot->Resolve(name);
    ASSERT_TRUE(handle.valid());
    TableShape shape = ShapeFor(*snapshot, handle);
    for (double sigma : sigmas) {
      for (uint64_t b : buffers) {
        probes.push_back(BatchProbe{handle, {sigma, 1.0, b}, shape});
        probes.push_back(BatchProbe{handle, {sigma, 0.2, b}, shape});
      }
    }
  }
  std::vector<CatalogEstimate> results(probes.size());
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());

  std::vector<std::string> names = snapshot->IndexNames();
  for (size_t i = 0; i < probes.size(); ++i) {
    const BatchProbe& probe = probes[i];
    SCOPED_TRACE("probe " + std::to_string(i));
    EXPECT_EQ(results[i].source, EstimateSource::kLruFitCurve);

    const std::string& name = names[probe.index.slot];
    auto single = EstIo::EstimateFromCatalog(*snapshot, name, probe.scan,
                                             probe.shape);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(results[i].fetches, single->fetches);  // Exact, not NEAR.

    IndexStats materialized = snapshot->Get(name).value();
    auto direct = EstIo::Estimate(materialized, probe.scan);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(results[i].fetches, *direct);
  }
}

TEST(EstIoBatchTest, ProbeOrderDoesNotChangeResults) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  std::vector<BatchProbe> grouped;
  for (const std::string& name : snapshot->IndexNames()) {
    CatalogSnapshot::Handle handle = snapshot->Resolve(name);
    TableShape shape = ShapeFor(*snapshot, handle);
    for (uint64_t b : {16u, 128u, 512u}) {
      grouped.push_back(BatchProbe{handle, {0.3, 0.7, b}, shape});
    }
  }
  // The same probes interleaved by slot (0,1,2,0,1,2,...): each probe is
  // estimated on its own, so every result must equal its lone by-name
  // estimate whichever order the batch arrives in.
  std::vector<BatchProbe> interleaved;
  std::vector<size_t> from;  // interleaved[i] is grouped[from[i]].
  for (size_t j = 0; j < 3; ++j) {
    for (size_t g = j; g < grouped.size(); g += 3) {
      interleaved.push_back(grouped[g]);
      from.push_back(g);
    }
  }
  ASSERT_EQ(interleaved.size(), grouped.size());

  std::vector<CatalogEstimate> grouped_results(grouped.size());
  std::vector<CatalogEstimate> interleaved_results(interleaved.size());
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, grouped, grouped_results).ok());
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, interleaved, interleaved_results)
          .ok());

  for (size_t i = 0; i < interleaved.size(); ++i) {
    auto single = EstIo::EstimateFromCatalog(
        *snapshot,
        snapshot->IndexNames()[interleaved[i].index.slot],
        interleaved[i].scan, interleaved[i].shape);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(interleaved_results[i].fetches, single->fetches);
    EXPECT_EQ(interleaved_results[i].fetches,
              grouped_results[from[i]].fetches);
  }
}

TEST(EstIoBatchTest, RejectedProbeDoesNotAffectNeighbors) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  CatalogSnapshot::Handle handle = snapshot->Resolve("aaa.key");
  TableShape shape = ShapeFor(*snapshot, handle);

  ScanSpec good{0.4, 1.0, 300};
  std::vector<BatchProbe> probes = {
      BatchProbe{handle, good, shape},
      BatchProbe{handle, {2.5, 1.0, 300}, shape},   // sigma out of range
      BatchProbe{handle, {0.4, 0.0, 300}, shape},   // sargable = 0
      BatchProbe{handle, {0.4, 1.0, 0}, shape},     // B = 0
      BatchProbe{handle, good, shape},
  };
  std::vector<CatalogEstimate> results(probes.size());
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());

  for (size_t i : {1u, 2u, 3u}) {
    SCOPED_TRACE("probe " + std::to_string(i));
    EXPECT_EQ(results[i].source, EstimateSource::kRejected);
    EXPECT_EQ(results[i].fetches, 0.0);
    EXPECT_EQ(results[i].stats_status.code(),
              StatusCode::kInvalidArgument);
  }
  auto single =
      EstIo::EstimateFromCatalog(*snapshot, "aaa.key", good, shape);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(results[0].fetches, single->fetches);
  EXPECT_EQ(results[4].fetches, single->fetches);
  EXPECT_EQ(results[0].source, EstimateSource::kLruFitCurve);
  EXPECT_EQ(results[4].source, EstimateSource::kLruFitCurve);
}

TEST(EstIoBatchTest, InvalidHandleDegradesToFormulaFallback) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  CatalogSnapshot::Handle miss = snapshot->Resolve("no-such-index");
  ASSERT_FALSE(miss.valid());
  TableShape shape{1000, 40000};

  std::vector<BatchProbe> probes = {
      BatchProbe{miss, {0.1, 1.0, 200}, shape}};
  std::vector<CatalogEstimate> results(1);
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());
  EXPECT_EQ(results[0].source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(results[0].stats_status.code(), StatusCode::kNotFound);
  EXPECT_GT(results[0].fetches, 0.0);

  // Same provenance and value as a by-name miss on the single path.
  auto single = EstIo::EstimateFromCatalog(*snapshot, "no-such-index",
                                           {0.1, 1.0, 200}, shape);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(results[0].fetches, single->fetches);
  EXPECT_EQ(single->source, EstimateSource::kFormulaFallback);
}

TEST(EstIoBatchTest, QuarantinedEntryDegradesWithCorruption) {
  // Entries and quarantine are disjoint (the StatsCatalog invariant):
  // a quarantined name resolves but carries no stats payload.
  std::map<std::string, IndexStats> entries;
  entries.emplace("good.key", MakeStats("good.key", 1000, 0.5));
  std::map<std::string, std::string> quarantined;
  quarantined["hurt.key"] = "checksum mismatch (test)";
  std::shared_ptr<const CatalogSnapshot> snapshot =
      CatalogSnapshot::Build(std::move(entries), std::move(quarantined), 1);

  CatalogSnapshot::Handle good = snapshot->Resolve("good.key");
  CatalogSnapshot::Handle hurt = snapshot->Resolve("hurt.key");
  ASSERT_TRUE(good.valid());
  ASSERT_TRUE(hurt.valid());
  TableShape shape{1000, 40000};

  std::vector<BatchProbe> probes = {
      BatchProbe{good, {0.2, 1.0, 300}, shape},
      BatchProbe{hurt, {0.2, 1.0, 300}, shape},
  };
  std::vector<CatalogEstimate> results(2);
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());

  EXPECT_EQ(results[0].source, EstimateSource::kLruFitCurve);
  EXPECT_TRUE(results[0].stats_status.ok());
  EXPECT_EQ(results[1].source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(results[1].stats_status.code(), StatusCode::kCorruption);
  // The degraded number comes from Yao over the table shape — identical
  // to what the by-name path reports for the same quarantined entry.
  auto single = EstIo::EstimateFromCatalog(*snapshot, "hurt.key",
                                           {0.2, 1.0, 300}, shape);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(results[1].fetches, single->fetches);
}

TEST(EstIoBatchTest, ResultsSpanTooSmallIsInvalidArgument) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  CatalogSnapshot::Handle handle = snapshot->Resolve("aaa.key");
  TableShape shape = ShapeFor(*snapshot, handle);
  std::vector<BatchProbe> probes(3,
                                 BatchProbe{handle, {0.5, 1.0, 100}, shape});
  std::vector<CatalogEstimate> results(2);
  Status status = EstIo::EstimateBatch(*snapshot, probes, results);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EstIoBatchTest, ForeignHandleFailsWholeBatch) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  // A handle with a slot beyond this snapshot can only have come from a
  // different (larger) snapshot — a caller bug, so the batch fails as a
  // unit and no results are produced.
  CatalogSnapshot::Handle foreign;
  foreign.slot = static_cast<uint32_t>(snapshot->size());
  ASSERT_TRUE(foreign.valid());
  TableShape shape{1000, 40000};

  CatalogSnapshot::Handle handle = snapshot->Resolve("aaa.key");
  std::vector<BatchProbe> probes = {
      BatchProbe{handle, {0.5, 1.0, 100}, shape},
      BatchProbe{foreign, {0.5, 1.0, 100}, shape},
  };
  std::vector<CatalogEstimate> results(2);
  results[0].fetches = -1.0;  // Sentinel: must remain untouched.
  Status status = EstIo::EstimateBatch(*snapshot, probes, results);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[0].fetches, -1.0);
}

TEST(EstIoBatchTest, EmptyBatchIsOk) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  EXPECT_TRUE(EstIo::EstimateBatch(*snapshot, {}, {}).ok());
}

}  // namespace
}  // namespace epfis
