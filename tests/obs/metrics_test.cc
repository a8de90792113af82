// Unit tests for the metrics registry: registration semantics, counter /
// gauge / histogram aggregation, thread-exit folding, the fixed-budget and
// type-mismatch inert-handle policy, and the two exporters.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace epfis {
namespace {

#if !EPFIS_METRICS_ENABLED

TEST(MetricsTest, MetricsCompiledOut) {
  GTEST_SKIP() << "built with EPFIS_METRICS=OFF; handle ops are no-ops";
}

#else

TEST(MetricsTest, DefaultHandlesAreInert) {
  // Must not crash; a default-constructed handle has no registry behind it.
  Counter counter;
  counter.Increment();
  counter.Increment(100);
  Gauge gauge;
  gauge.Set(7);
  gauge.Add(-3);
  LatencyHistogram hist;
  hist.Record(42);
}

TEST(MetricsTest, CountersAggregateAcrossHandles) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("test.hits");
  Counter b = registry.GetCounter("test.hits");  // Same metric, new handle.
  a.Increment();
  a.Increment(9);
  b.Increment(5);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.count("test.hits"), 1u);
  EXPECT_EQ(snap.counters.at("test.hits"), 15u);
}

TEST(MetricsTest, UnwrittenMetricsAppearAsZero) {
  MetricsRegistry registry;
  registry.GetCounter("test.idle");
  registry.GetGauge("test.idle_gauge");
  registry.GetHistogram("test.idle_ns");

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.idle"), 0u);
  EXPECT_EQ(snap.gauges.at("test.idle_gauge"), 0);
  EXPECT_EQ(snap.histograms.at("test.idle_ns").count, 0u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("test.idle_ns").Mean(), 0.0);
}

TEST(MetricsTest, GaugesSetAndAddSignedValues) {
  MetricsRegistry registry;
  Gauge gauge = registry.GetGauge("test.level");
  gauge.Set(10);
  gauge.Add(-25);
  EXPECT_EQ(registry.Snapshot().gauges.at("test.level"), -15);
  gauge.Set(3);
  EXPECT_EQ(registry.Snapshot().gauges.at("test.level"), 3);
}

TEST(MetricsTest, HistogramBucketsFollowBitWidth) {
  MetricsRegistry registry;
  LatencyHistogram hist = registry.GetHistogram("test.lat_ns");
  // bucket 0: value 0; bucket i >= 1: [2^(i-1), 2^i).
  hist.Record(0);    // bucket 0
  hist.Record(1);    // bucket 1
  hist.Record(2);    // bucket 2
  hist.Record(3);    // bucket 2
  hist.Record(4);    // bucket 3
  hist.Record(7);    // bucket 3
  hist.Record(8);    // bucket 4
  hist.Record(255);  // bucket 8
  hist.Record(256);  // bucket 9

  HistogramSnapshot snap = registry.Snapshot().histograms.at("test.lat_ns");
  EXPECT_EQ(snap.count, 9u);
  EXPECT_EQ(snap.sum, 0u + 1 + 2 + 3 + 4 + 7 + 8 + 255 + 256);
  ASSERT_GE(snap.buckets.size(), 10u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.buckets[4], 1u);
  EXPECT_EQ(snap.buckets[8], 1u);
  EXPECT_EQ(snap.buckets[9], 1u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 536.0 / 9.0);
}

TEST(MetricsTest, BucketUpperBoundsArePowersOfTwoMinusOne) {
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(10), 1023u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(64), UINT64_MAX);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(65), UINT64_MAX);
}

TEST(MetricsTest, PercentileUpperBoundWalksTheCdf) {
  MetricsRegistry registry;
  LatencyHistogram hist = registry.GetHistogram("test.p_ns");
  for (int i = 0; i < 90; ++i) hist.Record(3);    // bucket 2, upper bound 3
  for (int i = 0; i < 10; ++i) hist.Record(100);  // bucket 7, upper bound 127
  HistogramSnapshot snap = registry.Snapshot().histograms.at("test.p_ns");
  EXPECT_EQ(snap.PercentileUpperBound(0.5), 3u);
  EXPECT_EQ(snap.PercentileUpperBound(0.99), 127u);
}

TEST(MetricsTest, ThreadUpdatesSurviveThreadExit) {
  MetricsRegistry registry;
  Counter counter = registry.GetCounter("test.worker_hits");
  LatencyHistogram hist = registry.GetHistogram("test.worker_ns");

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&counter, &hist] {
      for (int i = 0; i < 1000; ++i) counter.Increment();
      hist.Record(5);
    });
  }
  for (auto& w : workers) w.join();
  // All four threads have exited; their shards must have been folded into
  // the retired accumulator, not dropped.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.worker_hits"), 4000u);
  EXPECT_EQ(snap.histograms.at("test.worker_ns").count, 4u);
  EXPECT_EQ(snap.histograms.at("test.worker_ns").sum, 20u);
}

TEST(MetricsTest, TwoRegistriesAreIndependent) {
  MetricsRegistry first;
  MetricsRegistry second;
  Counter a = first.GetCounter("test.shared_name");
  Counter b = second.GetCounter("test.shared_name");
  a.Increment(2);
  b.Increment(40);
  EXPECT_EQ(first.Snapshot().counters.at("test.shared_name"), 2u);
  EXPECT_EQ(second.Snapshot().counters.at("test.shared_name"), 40u);
}

TEST(MetricsTest, TypeMismatchYieldsInertHandleNotCrash) {
  MetricsRegistry registry;
  Counter counter = registry.GetCounter("test.typed");
  counter.Increment(3);
  // Re-registering the same name as other types must not corrupt the
  // counter; the mismatched handles are inert.
  Gauge gauge = registry.GetGauge("test.typed");
  gauge.Set(999);
  LatencyHistogram hist = registry.GetHistogram("test.typed");
  hist.Record(999);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.typed"), 3u);
  EXPECT_EQ(snap.gauges.count("test.typed"), 0u);
  EXPECT_EQ(snap.histograms.count("test.typed"), 0u);
}

TEST(MetricsTest, CounterGroupAddsToTheNamedCounters) {
  MetricsRegistry registry;
  Counter single = registry.GetCounter("test.group_b");
  single.Increment(5);
  CounterGroup<3> group = registry.GetCounterGroup<3>(
      {"test.group_a", "test.group_b", "test.group_c"});
  group.Add({1, 2, 0});
  group.Add({10, 0, 7});

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.group_a"), 11u);
  EXPECT_EQ(snap.counters.at("test.group_b"), 7u);  // Shared with `single`.
  EXPECT_EQ(snap.counters.at("test.group_c"), 7u);

  CounterGroup<2> inert;
  inert.Add({1, 1});  // Must not crash.
}

TEST(MetricsTest, CounterGroupMemberOfAnotherTypeIsInertAlone) {
  MetricsRegistry registry;
  Gauge gauge = registry.GetGauge("test.group_gauge");
  gauge.Set(4);
  CounterGroup<2> group =
      registry.GetCounterGroup<2>({"test.group_gauge", "test.group_ok"});
  group.Add({100, 3});

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauges.at("test.group_gauge"), 4);
  EXPECT_EQ(snap.counters.count("test.group_gauge"), 0u);
  EXPECT_EQ(snap.counters.at("test.group_ok"), 3u);
}

TEST(MetricsTest, SlotBudgetExhaustionYieldsInertHandles) {
  MetricsRegistry registry;
  // The slot budget is 4096; histograms take 66 slots each, so 70 of them
  // cannot all fit. Registration past the budget must hand out inert
  // handles and keep earlier metrics intact.
  Counter first = registry.GetCounter("test.first");
  first.Increment();
  for (int i = 0; i < 70; ++i) {
    LatencyHistogram hist =
        registry.GetHistogram("test.bulk_" + std::to_string(i) + "_ns");
    hist.Record(1);  // Must not crash even when inert.
  }
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.first"), 1u);
  EXPECT_LT(snap.histograms.size(), 70u);
}

TEST(MetricsTest, ToTextListsEveryMetricKind) {
  MetricsRegistry registry;
  registry.GetCounter("test.c").Increment(12);
  registry.GetGauge("test.g").Set(-4);
  LatencyHistogram hist = registry.GetHistogram("test.h_ns");
  hist.Record(10);
  hist.Record(1000);

  std::string text = registry.Snapshot().ToText();
  EXPECT_NE(text.find("counter test.c 12"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge test.g -4"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram test.h_ns count=2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("sum=1010"), std::string::npos) << text;
}

TEST(MetricsTest, ToJsonIsWellFormedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("test.c").Increment(7);
  registry.GetGauge("test.g").Set(11);
  registry.GetHistogram("test.h_ns").Record(3);

  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.c\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.g\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  // Value 3 lands in bucket 2 (upper bound 3), recorded as [3,1].
  EXPECT_NE(json.find("[3,1]"), std::string::npos) << json;
}

TEST(MetricsTest, GlobalRegistryIsASingleton) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
  Counter c = a.GetCounter("test.global_smoke");
  c.Increment();
  EXPECT_GE(a.Snapshot().counters.at("test.global_smoke"), 1u);
}

#endif  // EPFIS_METRICS_ENABLED

}  // namespace
}  // namespace epfis
