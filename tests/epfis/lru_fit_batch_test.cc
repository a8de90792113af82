#include "epfis/lru_fit.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/stats_catalog.h"
#include "epfis/trace_source.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace epfis {
namespace {

std::vector<PageId> RandomTrace(size_t refs, uint32_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  trace.reserve(refs);
  for (size_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(pages)));
  }
  return trace;
}

LruFitJob MakeJob(const std::string& name, uint64_t seed) {
  LruFitJob job;
  job.trace = std::make_unique<VectorTraceSource>(RandomTrace(8'000, 200, seed));
  job.table_pages = 200;
  job.distinct_keys = 40;
  job.index_name = name;
  return job;
}

TEST(RunLruFitBatchTest, CollectsManyIndexesIntoCatalog) {
  ThreadPool pool(4);
  StatsCatalog catalog;
  std::vector<LruFitJob> jobs;
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.push_back("idx_" + std::to_string(i));
    jobs.push_back(MakeJob(names.back(), 100 + i));
  }
  LruFitBatchResult result = RunLruFitBatch(std::move(jobs), pool, &catalog);
  ASSERT_EQ(result.statuses.size(), 12u);
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(result.num_ok, 12u);
  EXPECT_EQ(catalog.size(), 12u);
  for (const std::string& name : names) {
    auto stats = catalog.Get(name);
    ASSERT_TRUE(stats.ok()) << name;
    EXPECT_EQ(stats->index_name, name);
    EXPECT_EQ(stats->table_records, 8'000u);
    EXPECT_TRUE(stats->fpf.has_value());
  }
}

TEST(RunLruFitBatchTest, BatchMatchesSerialCollection) {
  ThreadPool pool(3);
  StatsCatalog catalog;
  std::vector<LruFitJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeJob("batch_" + std::to_string(i), 7 + i));
  }
  RunLruFitBatch(std::move(jobs), pool, &catalog);
  for (int i = 0; i < 4; ++i) {
    auto serial =
        RunLruFit(RandomTrace(8'000, 200, 7 + i), 200, 40,
                  "batch_" + std::to_string(i));
    ASSERT_TRUE(serial.ok());
    auto batched = catalog.Get("batch_" + std::to_string(i));
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(batched->f_min, serial->f_min);
    EXPECT_DOUBLE_EQ(batched->clustering, serial->clustering);
    for (double b : {12.0, 60.0, 200.0}) {
      EXPECT_DOUBLE_EQ(batched->FullScanFetches(b),
                       serial->FullScanFetches(b));
    }
  }
}

TEST(RunLruFitBatchTest, PageTargetJobsMatchSerialFits) {
  // A job's page target turns into the rate K/T inside its own RunLruFit
  // call, so a batched job is bit-identical to a serial RunLruFit with
  // the same options.
  ThreadPool pool(3);
  StatsCatalog catalog;
  LruFitOptions targeted;
  targeted.sample_max_pages = 64;
  std::vector<LruFitJob> jobs;
  for (int i = 0; i < 3; ++i) {
    LruFitJob job = MakeJob("targeted_" + std::to_string(i), 31 + i);
    job.options = targeted;
    jobs.push_back(std::move(job));
  }
  LruFitBatchResult result = RunLruFitBatch(std::move(jobs), pool, &catalog);
  EXPECT_TRUE(result.all_ok());
  for (int i = 0; i < 3; ++i) {
    auto serial = RunLruFit(RandomTrace(8'000, 200, 31 + i), 200, 40,
                            "targeted_" + std::to_string(i), targeted);
    ASSERT_TRUE(serial.ok());
    EXPECT_LT(serial->sample_rate, 1.0);
    auto batched = catalog.Get("targeted_" + std::to_string(i));
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(batched->f_min, serial->f_min);
    EXPECT_EQ(batched->sampled_refs, serial->sampled_refs);
    EXPECT_DOUBLE_EQ(batched->sample_rate, serial->sample_rate);
    for (double b : {12.0, 60.0, 200.0}) {
      EXPECT_DOUBLE_EQ(batched->FullScanFetches(b),
                       serial->FullScanFetches(b));
    }
  }
}

TEST(RunLruFitBatchTest, FailedJobsReportedWithoutPoisoningCatalog) {
  ThreadPool pool(2);
  StatsCatalog catalog;
  std::vector<LruFitJob> jobs;
  jobs.push_back(MakeJob("good", 1));
  // Empty trace: fails inside RunLruFit.
  LruFitJob empty;
  empty.trace = std::make_unique<VectorTraceSource>(std::vector<PageId>{});
  empty.table_pages = 10;
  empty.index_name = "empty";
  jobs.push_back(std::move(empty));
  // Missing trace: rejected up front.
  LruFitJob missing;
  missing.index_name = "missing";
  jobs.push_back(std::move(missing));

  LruFitBatchResult result = RunLruFitBatch(std::move(jobs), pool, &catalog);
  ASSERT_EQ(result.statuses.size(), 3u);
  EXPECT_TRUE(result.statuses[0].ok());
  EXPECT_FALSE(result.statuses[1].ok());
  EXPECT_FALSE(result.statuses[2].ok());
  EXPECT_EQ(result.num_ok, 1u);
  EXPECT_FALSE(result.all_ok());
  EXPECT_TRUE(catalog.Contains("good"));
  EXPECT_FALSE(catalog.Contains("empty"));
  EXPECT_FALSE(catalog.Contains("missing"));
}

TEST(StatsCatalogTest, ConcurrentPutGetIsSafe) {
  // Hammer the catalog from several threads; run under TSan in CI.
  StatsCatalog catalog;
  auto writer = [&catalog](int id) {
    for (int i = 0; i < 50; ++i) {
      IndexStats stats;
      stats.index_name = "idx_" + std::to_string(id);
      stats.table_pages = static_cast<uint64_t>(i);
      catalog.Put(stats);
      (void)catalog.Get("idx_" + std::to_string((id + 1) % 4));
      (void)catalog.size();
      (void)catalog.IndexNames();
    }
  };
  std::vector<std::thread> threads;
  for (int id = 0; id < 4; ++id) threads.emplace_back(writer, id);
  for (auto& t : threads) t.join();
  EXPECT_EQ(catalog.size(), 4u);
}

}  // namespace
}  // namespace epfis
