#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/stats_catalog.h"
#include "epfis/lru_fit.h"
#include "epfis/trace_source.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace epfis {
namespace {

// A trace source that yields part of its trace and then fails with
// Corruption — a deterministic stand-in for a torn trace file, pinned to
// one specific job regardless of worker scheduling.
class CorruptTraceSource final : public TraceSource {
 public:
  CorruptTraceSource(std::vector<PageId> trace, size_t fail_after)
      : trace_(std::move(trace)), fail_after_(fail_after) {}

  Result<size_t> Next(PageId* buffer, size_t capacity) override {
    if (pos_ >= fail_after_) {
      return Status::Corruption("trace file: truncated body");
    }
    size_t n = std::min(capacity, fail_after_ - pos_);
    std::memcpy(buffer, trace_.data() + pos_, n * sizeof(PageId));
    pos_ += n;
    return n;
  }
  Status Reset() override {
    pos_ = 0;
    return Status::Ok();
  }
  std::optional<uint64_t> size_hint() const override {
    return static_cast<uint64_t>(trace_.size());
  }

 private:
  std::vector<PageId> trace_;
  size_t fail_after_;
  size_t pos_ = 0;
};

// A source whose Next throws, exercising the exception containment.
class ThrowingTraceSource final : public TraceSource {
 public:
  Result<size_t> Next(PageId*, size_t) override {
    throw std::runtime_error("misbehaving trace source");
  }
  Status Reset() override { return Status::Ok(); }
};

std::vector<PageId> MakeTrace(uint64_t seed, size_t n) {
  std::vector<PageId> trace(n);
  uint64_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    trace[i] = static_cast<PageId>(x % 200);
  }
  return trace;
}

class LruFitBatchIsolationTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// The job-k isolation satellite: one corrupt job fails with Corruption at
// exactly its index; every other job's published statistics are
// bit-identical to a serial RunLruFit of the same trace — across several
// pool widths.
TEST_F(LruFitBatchIsolationTest, CorruptJobIsIsolatedAcrossPoolWidths) {
  constexpr size_t kJobs = 5;
  constexpr size_t kBadJob = 2;
  constexpr uint64_t kTablePages = 200;

  // Serial reference results for the good jobs.
  std::vector<IndexStats> expected(kJobs);
  for (size_t j = 0; j < kJobs; ++j) {
    if (j == kBadJob) continue;
    auto stats = RunLruFit(MakeTrace(j, 5000), kTablePages, 100,
                           "ix_" + std::to_string(j));
    ASSERT_TRUE(stats.ok());
    expected[j] = std::move(*stats);
  }

  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::vector<LruFitJob> jobs;
    for (size_t j = 0; j < kJobs; ++j) {
      LruFitJob job;
      if (j == kBadJob) {
        job.trace = std::make_unique<CorruptTraceSource>(MakeTrace(j, 5000),
                                                         2500);
      } else {
        job.trace =
            std::make_unique<VectorTraceSource>(MakeTrace(j, 5000));
      }
      job.table_pages = kTablePages;
      job.distinct_keys = 100;
      job.index_name = "ix_" + std::to_string(j);
      jobs.push_back(std::move(job));
    }

    StatsCatalog catalog;
    LruFitBatchResult result = RunLruFitBatch(std::move(jobs), pool,
                                              &catalog);
    ASSERT_EQ(result.statuses.size(), kJobs);
    EXPECT_EQ(result.num_ok, kJobs - 1);
    for (size_t j = 0; j < kJobs; ++j) {
      if (j == kBadJob) {
        EXPECT_EQ(result.statuses[j].code(), StatusCode::kCorruption);
        EXPECT_FALSE(catalog.Contains("ix_" + std::to_string(j)));
        continue;
      }
      EXPECT_TRUE(result.statuses[j].ok());
      auto got = catalog.Get("ix_" + std::to_string(j));
      ASSERT_TRUE(got.ok());
      // Bit-identical to the serial run: every scalar and every knot.
      EXPECT_EQ(got->table_records, expected[j].table_records);
      EXPECT_EQ(got->pages_accessed, expected[j].pages_accessed);
      EXPECT_EQ(got->f_min, expected[j].f_min);
      EXPECT_EQ(got->clustering, expected[j].clustering);
      ASSERT_TRUE(got->fpf.has_value());
      ASSERT_TRUE(expected[j].fpf.has_value());
      ASSERT_EQ(got->fpf->knots().size(), expected[j].fpf->knots().size());
      for (size_t k = 0; k < got->fpf->knots().size(); ++k) {
        EXPECT_EQ(got->fpf->knots()[k].x, expected[j].fpf->knots()[k].x);
        EXPECT_EQ(got->fpf->knots()[k].y, expected[j].fpf->knots()[k].y);
      }
    }
  }
}

TEST_F(LruFitBatchIsolationTest, ThrowingJobBecomesInternalStatus) {
  ThreadPool pool(2);
  std::vector<LruFitJob> jobs;
  for (int j = 0; j < 3; ++j) {
    LruFitJob job;
    if (j == 1) {
      job.trace = std::make_unique<ThrowingTraceSource>();
    } else {
      job.trace = std::make_unique<VectorTraceSource>(MakeTrace(j, 2000));
    }
    job.table_pages = 200;
    job.index_name = "ix_" + std::to_string(j);
    jobs.push_back(std::move(job));
  }
  StatsCatalog catalog;
  LruFitBatchResult result = RunLruFitBatch(std::move(jobs), pool, &catalog);
  EXPECT_EQ(result.num_ok, 2u);
  EXPECT_EQ(result.statuses[1].code(), StatusCode::kInternal);
  EXPECT_NE(result.statuses[1].message().find("misbehaving"),
            std::string::npos);
}

TEST_F(LruFitBatchIsolationTest, InjectedFaultFailsEveryJobWithoutHanging) {
  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  FaultInjector::Global().Arm("lru_fit.batch.job", spec);
  ThreadPool pool(4);
  std::vector<LruFitJob> jobs;
  for (int j = 0; j < 6; ++j) {
    LruFitJob job;
    job.trace = std::make_unique<VectorTraceSource>(MakeTrace(j, 1000));
    job.table_pages = 200;
    job.index_name = "ix_" + std::to_string(j);
    jobs.push_back(std::move(job));
  }
  StatsCatalog catalog;
  LruFitBatchResult result = RunLruFitBatch(std::move(jobs), pool, &catalog);
  EXPECT_EQ(result.num_ok, 0u);
  for (const Status& s : result.statuses) {
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(catalog.size(), 0u);
}

}  // namespace
}  // namespace epfis
