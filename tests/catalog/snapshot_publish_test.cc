// The RCU publish/snapshot side of StatsCatalog.
//
// The concurrency tests here are the ThreadSanitizer drill for the
// snapshot swap (CI runs this file under TSan via the StatsCatalog
// regex): N writer threads Put+Publish whole catalog generations while M
// reader threads batch-estimate off snapshots with no synchronization of
// their own. Each published generation stamps every entry with the same
// token, so a reader can detect a torn snapshot (entries from two
// generations) purely from the data it reads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "catalog/stats_catalog.h"
#include "catalog_v3_images.h"
#include "epfis/est_io.h"
#include "util/fault.h"

namespace epfis {
namespace {

constexpr int kIndexes = 4;

std::string IndexName(int i) { return "idx" + std::to_string(i) + ".key"; }

// One catalog entry; `token` is stamped into distinct_keys (coherence
// marker) and into the last knot's y (so estimate outputs also carry it).
IndexStats MakeStats(int index, uint64_t token) {
  IndexStats stats;
  stats.index_name = IndexName(index);
  stats.table_pages = 1000;
  stats.table_records = 40000;
  stats.distinct_keys = token;
  stats.pages_accessed = 1000;
  stats.b_min = 12;
  stats.b_max = 1000;
  stats.f_min = 30000;
  stats.clustering = 0.5;
  stats.fpf = PiecewiseLinear::FromKnots(
                  {{12, 30000},
                   {300, 6000},
                   {1000, 1000 + static_cast<double>(token % 997)}})
                  .value();
  return stats;
}

TEST(StatsCatalogSnapshotTest, SnapshotBeforeFirstPublishIsEmpty) {
  StatsCatalog catalog;
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->size(), 0u);
  EXPECT_EQ(snapshot->generation(), 0u);
  EXPECT_FALSE(snapshot->Resolve("anything").valid());
}

TEST(StatsCatalogSnapshotTest, PublishFreezesCurrentEntries) {
  StatsCatalog catalog;
  catalog.Put(MakeStats(0, 7));
  ASSERT_TRUE(catalog.Publish().ok());
  std::shared_ptr<const CatalogSnapshot> first = catalog.snapshot();
  EXPECT_EQ(first->generation(), 1u);
  ASSERT_EQ(first->size(), 1u);

  // Later mutations are invisible until the next Publish...
  catalog.Put(MakeStats(1, 8));
  EXPECT_EQ(catalog.snapshot()->size(), 1u);
  ASSERT_TRUE(catalog.Publish().ok());
  std::shared_ptr<const CatalogSnapshot> second = catalog.snapshot();
  EXPECT_EQ(second->generation(), 2u);
  EXPECT_EQ(second->size(), 2u);

  // ...and the retired snapshot a reader still holds is untouched.
  EXPECT_EQ(first->size(), 1u);
  EXPECT_TRUE(first->Resolve(IndexName(0)).valid());
  EXPECT_FALSE(first->Resolve(IndexName(1)).valid());
}

TEST(StatsCatalogSnapshotTest, PublishCarriesQuarantineMarks) {
  StatsCatalog catalog;
  catalog.Put(MakeStats(0, 1));
  // Quarantine marks come from recovering loads; simulate one by loading
  // an image with a flipped byte in idx1's fixed fields.
  StatsCatalog source;
  source.Put(MakeStats(0, 1));
  source.Put(MakeStats(1, 1));
  std::string image = source.SaveToStringV3();
  image[ReadV3Record(image, 1).fixed_offset + 2] ^= 0xFF;
  auto report = catalog.RecoverFromString(image);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->entries_quarantined, 1u);

  ASSERT_TRUE(catalog.Publish().ok());
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.snapshot();
  EXPECT_EQ(snapshot->size(), 2u);
  EXPECT_TRUE(snapshot->IsQuarantined(IndexName(1)));
  EXPECT_FALSE(snapshot->IsQuarantined(IndexName(0)));
  EXPECT_EQ(snapshot->Get(IndexName(1)).status().code(),
            StatusCode::kCorruption);
}

TEST(StatsCatalogSnapshotTest, FailedPublishLeavesPreviousSnapshotCurrent) {
  StatsCatalog catalog;
  catalog.Put(MakeStats(0, 1));
  ASSERT_TRUE(catalog.Publish().ok());
  std::shared_ptr<const CatalogSnapshot> before = catalog.snapshot();

  catalog.Put(MakeStats(1, 2));
  FaultInjector::Global().Arm("catalog.publish.swap", {});
  Status failed = catalog.Publish();
  FaultInjector::Global().Disarm("catalog.publish.swap");
  EXPECT_FALSE(failed.ok());
  // The swap never happened: readers still see the pre-fault snapshot.
  EXPECT_EQ(catalog.snapshot().get(), before.get());
  EXPECT_EQ(catalog.snapshot()->size(), 1u);

  // The catalog itself is fine; the next publish succeeds and catches up.
  ASSERT_TRUE(catalog.Publish().ok());
  EXPECT_EQ(catalog.snapshot()->size(), 2u);
}

// The TSan drill: concurrent Publish and EstimateBatch, no torn reads.
TEST(StatsCatalogSnapshotTest, ConcurrentPublishAndBatchEstimateIsCoherent) {
  StatsCatalog catalog;
  for (int i = 0; i < kIndexes; ++i) catalog.Put(MakeStats(i, 1));
  ASSERT_TRUE(catalog.Publish().ok());

  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kPublishes = 60;
  constexpr int kReadsPerReader = 200;

  // Writers serialize *with each other* (publishing half a generation is
  // a writer-side bug, not the race under test); readers take no lock at
  // all — that is the contract being drilled.
  std::mutex writer_mu;
  std::atomic<uint64_t> next_token{2};
  std::atomic<bool> stop{false};
  std::atomic<int> torn_snapshots{0};
  std::atomic<int> batch_failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPublishes; ++p) {
        std::lock_guard<std::mutex> lock(writer_mu);
        uint64_t token = next_token.fetch_add(1);
        for (int i = 0; i < kIndexes; ++i) catalog.Put(MakeStats(i, token));
        ASSERT_TRUE(catalog.Publish().ok());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      TableShape shape{1000, 40000};
      for (int iter = 0; iter < kReadsPerReader && !stop.load(); ++iter) {
        std::shared_ptr<const CatalogSnapshot> snapshot =
            catalog.snapshot();
        ASSERT_EQ(snapshot->size(), static_cast<size_t>(kIndexes));

        // Every entry of one snapshot must carry the same token: a batch
        // sees exactly one published generation, never a mix.
        uint64_t token =
            snapshot->EntryAt(snapshot->Resolve(IndexName(0)))
                .distinct_keys;
        std::vector<BatchProbe> probes;
        probes.reserve(kIndexes * 2);
        for (int i = 0; i < kIndexes; ++i) {
          CatalogSnapshot::Handle handle =
              snapshot->Resolve(IndexName(i));
          ASSERT_TRUE(handle.valid());
          if (snapshot->EntryAt(handle).distinct_keys != token) {
            torn_snapshots.fetch_add(1);
          }
          probes.push_back(BatchProbe{handle, {0.1, 1.0, 200}, shape});
          probes.push_back(BatchProbe{handle, {1.0, 1.0, 1000}, shape});
        }
        std::vector<CatalogEstimate> results(probes.size());
        Status status = EstIo::EstimateBatch(*snapshot, probes, results);
        if (!status.ok()) batch_failures.fetch_add(1);
        // The full-scan probe at B = b_max reads the last knot, whose y
        // carries the token — cross-check the curve data itself is from
        // the same generation as the scalar fields.
        double expect_full =
            1000.0 + static_cast<double>(token % 997);
        for (size_t i = 1; i < results.size(); i += 2) {
          if (results[i].source != EstimateSource::kLruFitCurve ||
              results[i].fetches != expect_full) {
            torn_snapshots.fetch_add(1);
          }
        }
      }
      stop.store(true);  // First finished reader releases the others.
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(torn_snapshots.load(), 0);
  EXPECT_EQ(batch_failures.load(), 0);
  EXPECT_EQ(catalog.snapshot()->generation(),
            1u + kWriters * kPublishes);
}

}  // namespace
}  // namespace epfis
