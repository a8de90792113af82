#include "buffer/parallel_stack_distance.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "buffer/stack_distance_kernel.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/fenwick.h"
#include "util/flat_hash.h"
#include "util/thread_pool.h"

namespace epfis {
namespace {

// Folds a finished kernel's run counters into the global registry. The
// kernel itself keeps plain members in its hot loop; publishing once per
// run keeps the instrumentation off the per-reference path.
void PublishKernelMetrics(const StackDistanceKernel& kernel) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter refs = registry.GetCounter("kernel.refs");
  static Counter compactions = registry.GetCounter("kernel.compactions");
  static Counter resizes = registry.GetCounter("kernel.window_resizes");
  static Counter lookups = registry.GetCounter("kernel.hash_lookups");
  static Counter probes = registry.GetCounter("kernel.hash_probes");
  static Counter grows = registry.GetCounter("kernel.hash_grows");
  refs.Increment(kernel.accesses());
  compactions.Increment(kernel.compactions());
  resizes.Increment(kernel.window_resizes());
  auto hash = kernel.hash_stats();
  lookups.Increment(hash.lookups);
  probes.Increment(hash.probes);
  grows.Increment(hash.grows);
}

// Publishes what a sampled pass did: volumes on both sides of the filter,
// adaptive-threshold activity, and the rescale factor 1/R (a gauge, since
// it is a property of the last run, not an accumulating event count).
void PublishSamplingMetrics(const SamplingSummary& summary) {
  if (!summary.active()) return;
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter total = registry.GetCounter("sampling.total_refs");
  static Counter sampled = registry.GetCounter("sampling.sampled_refs");
  static Counter drops = registry.GetCounter("sampling.threshold_drops");
  static Counter evicted = registry.GetCounter("sampling.evicted_pages");
  static Gauge rescale =
      registry.GetGauge("sampling.rescale_factor_x1000");
  total.Increment(summary.total_refs);
  sampled.Increment(summary.sampled_refs);
  drops.Increment(summary.threshold_drops);
  evicted.Increment(summary.evicted_pages);
  rescale.Set(static_cast<int64_t>(
      std::llround(1000.0 / summary.effective_rate)));
}

// How far ahead the shard pass and the merge pass prefetch last-access
// slots (matches the serial kernel's scheme).
constexpr size_t kPrefetchAhead = 8;

// Cancellation-poll cadence inside a shard pass: one relaxed poll every
// this many references. Power of two so the gate is a mask test on the
// loop index.
constexpr size_t kCancelCheckMask = (size_t{1} << 16) - 1;

// Chunk size (in references) of the streaming read buffer, shared by the
// serial kernel feed and the parallel reader.
constexpr size_t kTraceChunkRefs = size_t{1} << 16;

// Ceiling on the per-shard reference target. An absurd size_hint (a
// corrupt header can claim 2^60 references) must not overflow the size_t
// arithmetic of the even split; results never depend on the geometry, so
// clamping merely splits an impossibly large claim into more shards.
constexpr size_t kMaxShardRefs = size_t{1} << 31;

// Cap on the up-front reserve of a shard buffer; past this the vector
// grows geometrically as references actually arrive, so a huge (or lying)
// size_hint cannot provoke a gigantic allocation before any data exists.
constexpr size_t kShardReserveCap = size_t{1} << 22;

// Shards per pool worker when the caller leaves num_shards at 0. Mild
// oversubscription keeps every worker busy while the reader fills the
// next shard.
constexpr size_t kShardsPerWorker = 2;

// Result of the parallel phase for one shard. Distances whose reuse window
// lies entirely inside the shard are final (in `hist`); each shard-first
// access is deferred to the merge pass, which sees global state.
struct ShardResult {
  // Intra-shard distances: hist[d] = count of references at distance d.
  std::vector<uint64_t> hist;
  // Shard-first accesses (page, global position), in trace order.
  std::vector<std::pair<PageId, uint64_t>> first_access;
  // Final (page, global position of its last access in the shard), any
  // order. The merge pass advances the global last-access table with these.
  std::vector<std::pair<PageId, uint64_t>> last_access;
};

// Runs the serial Mattson algorithm on one shard over *local* timestamps.
// A reference whose previous access is inside the shard has a reuse window
// entirely inside the shard, so its local distance equals its global
// distance and can be histogrammed immediately.
//
// Uses the kernel's tricks directly: flat last-access table with lookahead
// prefetch, and the one-sided count `table_size - PrefixSum(prev - 1)` in
// place of the two-sided RangeSum (every live bit is at a local time < i,
// and the table holds one live bit per distinct page seen).
Result<ShardResult> ProcessShard(const std::vector<PageId>& shard,
                                 uint64_t offset,
                                 const CancellationToken& token,
                                 const Deadline& deadline) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter shards_counter = registry.GetCounter("sd.shards");
  static Counter shard_refs_counter = registry.GetCounter("sd.shard_refs");
  static Counter deferred_counter =
      registry.GetCounter("sd.deferred_first_accesses");
  static LatencyHistogram shard_ns = registry.GetHistogram("sd.shard_ns");
  ScopedTimer timer(shard_ns);

  ShardResult result;
  FenwickTree live(shard.empty() ? 1 : shard.size());
  FlatHashMap<PageId, uint64_t, kInvalidPageId> last(shard.size() / 4 + 8);
  for (size_t i = 0; i < shard.size(); ++i) {
    if ((i & kCancelCheckMask) == 0) {
      EPFIS_RETURN_IF_ERROR(CheckCancel(token, deadline,
                                        "stack distance shard"));
    }
    if (i + kPrefetchAhead < shard.size()) {
      last.Prefetch(shard[i + kPrefetchAhead]);
    }
    auto [slot, inserted] = last.TryEmplace(shard[i], i);
    if (inserted) {
      result.first_access.emplace_back(shard[i], offset + i);
    } else {
      uint64_t prev = *slot;
      uint64_t below =
          prev == 0 ? 0 : static_cast<uint64_t>(live.PrefixSum(
                              static_cast<size_t>(prev - 1)));
      uint64_t d = static_cast<uint64_t>(last.size()) - below;
      if (d >= result.hist.size()) result.hist.resize(d + 1, 0);
      ++result.hist[d];
      live.Add(static_cast<size_t>(prev), -1);
      *slot = i;
    }
    live.Add(i, +1);
  }
  result.last_access.reserve(last.size());
  last.ForEach([&result, offset](PageId page, uint64_t pos) {
    result.last_access.emplace_back(page, offset + pos);
  });
  shards_counter.Increment();
  shard_refs_counter.Increment(shard.size());
  deferred_counter.Increment(result.first_access.size());
  return result;
}

Result<SampledStackDistances> ComputeSerial(
    TraceSource& trace, const StackDistanceOptions& options) {
  const SamplingOptions& sampling = options.sampling;
  size_t expected = static_cast<size_t>(trace.size_hint().value_or(1024));
  StackDistanceKernel kernel(expected == 0 ? 1 : expected,
                             /*window_hint=*/0, sampling);
  std::vector<PageId> buffer(kTraceChunkRefs);
  for (;;) {
    EPFIS_RETURN_IF_ERROR(
        CheckCancel(options.cancel, options.deadline, "stack distance"));
    EPFIS_ASSIGN_OR_RETURN(size_t n, trace.Next(buffer.data(), buffer.size()));
    if (n == 0) break;
    kernel.AccessAll(buffer.data(), n);
  }
  SamplingSummary summary = kernel.sampling_summary();
  if (summary.total_refs == 0) {
    return Status::InvalidArgument("stack distance: empty trace");
  }
  if (summary.sampled_refs == 0) {
    return Status::FailedPrecondition(
        "stack distance: sampling rate too low, no references sampled");
  }
  static Counter serial_runs =
      MetricsRegistry::Global().GetCounter("sd.serial_runs");
  serial_runs.Increment();
  PublishKernelMetrics(kernel);
  PublishSamplingMetrics(summary);
  return kernel.sampled_result();
}

// Merges one shard into the global histogram and last-access state.
//
// `live` holds one bit per known page at its *effective* last access:
// the final position in some earlier shard, or — for pages already
// re-encountered in this shard's first_access prefix — their first position
// in this shard. For a shard-first access to page x at global position t
// with previous global access t0, every distinct page touched in (t0, t)
// has exactly one live bit in [t0, t-1]: pages touched earlier in this
// shard sit at their shard-first position (>= shard start > t0), pages not
// touched in this shard sit at their final position in an earlier shard
// (< shard start, counted iff >= t0), and x itself sits at t0. Hence
// RangeSum(t0, t-1) is exactly the serial stack distance.
void MergeShard(const ShardResult& shard, FenwickTree& live,
                FlatHashMap<PageId, uint64_t, kInvalidPageId>& global_last,
                StackDistanceHistogram& out) {
  // Pre-size the output buckets so the AddDistance calls below never
  // reallocate mid-merge: no merged distance can exceed the table size
  // after every first access of this shard has been inserted, and the
  // intra-shard histogram's top bucket is known up front.
  uint64_t max_d = shard.hist.empty() ? 0 : shard.hist.size() - 1;
  max_d = std::max<uint64_t>(
      max_d, static_cast<uint64_t>(global_last.size()) +
                 static_cast<uint64_t>(shard.first_access.size()));
  out.ReserveDistances(max_d);
  for (uint64_t d = 1; d < shard.hist.size(); ++d) {
    if (shard.hist[d] > 0) out.AddDistances(d, shard.hist[d]);
  }
  const auto& first = shard.first_access;
  for (size_t i = 0; i < first.size(); ++i) {
    if (i + kPrefetchAhead < first.size()) {
      global_last.Prefetch(first[i + kPrefetchAhead].first);
    }
    const auto& [page, pos] = first[i];
    auto [slot, inserted] = global_last.TryEmplace(page, pos);
    if (inserted) {
      out.AddColdMiss();
      live.Add(static_cast<size_t>(pos), +1);
    } else {
      // One-sided form of RangeSum(prev, pos - 1): every known page has
      // exactly one live bit, all at positions < pos (earlier shards end
      // before this one; earlier first-accesses of this shard precede
      // pos), so PrefixSum(pos - 1) is just the table size.
      uint64_t prev = *slot;
      uint64_t below =
          prev == 0 ? 0 : static_cast<uint64_t>(live.PrefixSum(
                              static_cast<size_t>(prev - 1)));
      out.AddDistance(static_cast<uint64_t>(global_last.size()) - below);
      // Fused -1/+1 walk: identical tree contents to Add(prev, -1) +
      // Add(pos, +1), skipping the shared ancestor path that cancels.
      live.MovePair(static_cast<size_t>(prev), static_cast<size_t>(pos));
      *slot = pos;
    }
  }
  // Advance every page touched in this shard to its final in-shard
  // position, restoring the invariant for the next shard's merge. Every
  // such page had a first access in this shard, so it is in the table.
  const auto& lasts = shard.last_access;
  for (size_t i = 0; i < lasts.size(); ++i) {
    if (i + kPrefetchAhead < lasts.size()) {
      global_last.Prefetch(lasts[i + kPrefetchAhead].first);
    }
    const auto& [page, pos] = lasts[i];
    uint64_t* cur = global_last.Find(page);
    if (*cur != pos) {
      live.MovePair(static_cast<size_t>(*cur), static_cast<size_t>(pos));
      *cur = pos;
    }
  }
}

// Sharded computation over the (possibly filtered) trace. In sampled mode
// every shard uses the one static threshold baked into the chunk-fill
// loop below — shards never see a dropped reference, global positions and
// the merge's live axis live in the sampled sub-trace, and the merge is
// the exact algorithm over that sub-trace. `total_refs_out` reports every
// reference read, sampled or not; `exact_distinct_out` the exact distinct
// page count of the full trace (the single reader marks first touches of
// every page in a bitmap while it filters; 0 when unfiltered — the merge
// already counts exact colds then).
Result<StackDistanceHistogram> ComputeParallel(
    TraceSource& trace, ThreadPool& pool,
    const StackDistanceOptions& options, uint64_t threshold,
    uint64_t* total_refs_out, uint64_t* exact_distinct_out) {
  size_t num_shards = options.num_shards > 0
                          ? options.num_shards
                          : kShardsPerWorker * pool.num_threads();
  size_t min_refs = std::max<size_t>(options.min_shard_refs, 1);
  const CancellationToken& token = options.cancel;
  const Deadline deadline = options.deadline;
  const bool filtered = threshold < kSampleModulus;
  const double rate = static_cast<double>(threshold) /
                      static_cast<double>(kSampleModulus);

  // Shard size: split a known-length trace evenly (scaled by the expected
  // survivor fraction when filtering); fall back to a fixed chunk for
  // unbounded sources (more shards than workers just queue). The clamp
  // runs in double, before the cast: a corrupt size_hint claiming 2^60
  // references must not push the conversion into size_t overflow.
  size_t shard_refs;
  if (auto hint = trace.size_hint(); hint.has_value() && *hint > 0) {
    double expected = static_cast<double>(*hint);
    if (filtered) expected *= rate;
    double per_shard =
        expected / static_cast<double>(num_shards) + 1.0;
    shard_refs = static_cast<size_t>(
        std::min(per_shard, static_cast<double>(kMaxShardRefs)));
  } else {
    shard_refs = size_t{1} << 20;
  }
  shard_refs = std::clamp(shard_refs, min_refs, kMaxShardRefs);
  // Reserve for what will plausibly arrive, not for what the hint claims.
  const size_t shard_reserve = std::min(shard_refs, kShardReserveCap);

  // Parallel phase: stream shard-sized chunks to the pool, capping the
  // number of in-flight shards so an unbounded source never accumulates
  // unprocessed raw trace in memory. The filter runs here, in the single
  // reader, so every shard agrees on the sampled subset by construction.
  // Finished shards are collected in submission order and merged behind
  // a barrier once every shard has landed; that order is what the
  // exactness argument above MergeShard needs.
  //
  // Failure isolation: shard tasks return Result<ShardResult> — nothing
  // propagates through future::get() as an exception. The reader records
  // the first error (from a shard or the source), stops submitting new
  // shards, and drains every in-flight future before returning, so no
  // task ever outlives this call and a failed shard can never deadlock
  // the bounded in-flight window.
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter parallel_runs = registry.GetCounter("sd.parallel_runs");
  static LatencyHistogram merge_ns = registry.GetHistogram("sd.merge_ns");
  std::vector<std::future<Result<ShardResult>>> futures;
  std::vector<ShardResult> results;  // results[k] is shard k.
  size_t drained = 0;  // futures[0, drained) have been collected.
  Status first_error;
  const size_t max_in_flight = pool.num_threads() + 2;
  uint64_t total_refs = 0;    // References read from the source.
  uint64_t sampled_refs = 0;  // References that passed the filter.
  std::vector<PageId> raw(kTraceChunkRefs);
  std::vector<PageId> shard;
  shard.reserve(shard_reserve);

  auto drain_one = [&] {
    Result<ShardResult> r = futures[drained].get();
    ++drained;
    if (!r.ok()) {
      if (first_error.ok()) first_error = r.status();
      return;
    }
    if (first_error.ok()) results.push_back(std::move(*r));
  };
  auto submit = [&] {
    uint64_t offset = sampled_refs - shard.size();
    futures.push_back(pool.Submit(
        [shard = std::move(shard), offset, token,
         deadline]() mutable -> Result<ShardResult> {
          try {
            EPFIS_RETURN_IF_ERROR(FaultPoint("sd.shard.task"));
            return ProcessShard(shard, offset, token, deadline);
          } catch (const std::exception& e) {
            return Status::Internal(
                std::string("stack distance shard failed: ") + e.what());
          } catch (...) {
            return Status::Internal("stack distance shard failed");
          }
        }));
    shard = std::vector<PageId>();
    shard.reserve(shard_reserve);
    while (futures.size() - drained >= max_in_flight) drain_one();
  };
  PageSeenSet seen;
  Status read_error;
  while (first_error.ok()) {
    if (Status cs = CheckCancel(token, deadline, "stack distance");
        !cs.ok()) {
      first_error = cs;
      break;
    }
    Result<size_t> n_or = trace.Next(raw.data(), raw.size());
    if (!n_or.ok()) {
      read_error = n_or.status();
      break;
    }
    size_t n = *n_or;
    if (n == 0) break;
    total_refs += n;
    for (size_t i = 0; i < n; ++i) {
      if (filtered) {
        seen.TestAndSet(raw[i]);
        if (SampleHash(raw[i]) >= threshold) continue;
      }
      shard.push_back(raw[i]);
      ++sampled_refs;
      if (shard.size() >= shard_refs) submit();
    }
  }
  if (read_error.ok() && first_error.ok() && !shard.empty()) submit();
  while (drained < futures.size()) drain_one();
  if (!read_error.ok()) return read_error;
  if (!first_error.ok()) return first_error;
  *total_refs_out = total_refs;
  *exact_distinct_out = filtered ? seen.distinct() : 0;
  if (total_refs == 0) {
    return Status::InvalidArgument("stack distance: empty trace");
  }
  if (sampled_refs == 0) {
    return Status::FailedPrecondition(
        "stack distance: sampling rate too low, no references sampled");
  }

  // The sequential merge, in shard order. Its cost is proportional to the
  // distinct pages per shard, not the references per shard — that gap is
  // where the parallel speedup comes from. Every merged position lies in
  // the sampled sub-trace, so the live axis is sized once, up front.
  StackDistanceHistogram out;
  FenwickTree live(static_cast<size_t>(sampled_refs));
  FlatHashMap<PageId, uint64_t, kInvalidPageId> global_last;
  {
    ScopedTimer timer(merge_ns);
    for (const ShardResult& shard_result : results) {
      EPFIS_RETURN_IF_ERROR(FaultPoint("sd.merge.step"));
      EPFIS_RETURN_IF_ERROR(
          CheckCancel(token, deadline, "stack distance merge"));
      MergeShard(shard_result, live, global_last, out);
    }
  }
  parallel_runs.Increment();
  return out;
}

}  // namespace

Result<StackDistanceHistogram> ComputeStackDistances(
    TraceSource& trace, ThreadPool* pool,
    const StackDistanceOptions& options) {
  if (options.sampling.enabled()) {
    return Status::InvalidArgument(
        "stack distance: sampling requested on the exact entry point; "
        "call ComputeSampledStackDistances");
  }
  EPFIS_ASSIGN_OR_RETURN(SampledStackDistances result,
                         ComputeSampledStackDistances(trace, pool, options));
  return std::move(result.histogram);
}

Result<SampledStackDistances> ComputeSampledStackDistances(
    TraceSource& trace, ThreadPool* pool,
    const StackDistanceOptions& options) {
  EPFIS_RETURN_IF_ERROR(options.sampling.Validate());
  // Adaptive mode's threshold is a global, time-ordered quantity (it
  // drops as the set fills), which independent shards cannot reproduce;
  // it always runs on the serial kernel. Fixed-rate and exact runs shard
  // freely. LruFitOptions::Validate rejects pool + max_pages up front so
  // a requested parallel LRU-Fit never lands here silently serialized;
  // this routing remains for direct callers and RunLruFitBatch jobs
  // (whose per-job pool is legitimately null).
  if (pool == nullptr || pool->num_threads() <= 1 ||
      options.sampling.max_pages > 0) {
    return ComputeSerial(trace, options);
  }
  uint64_t threshold = options.sampling.rate < 1.0
                           ? SampleThresholdForRate(options.sampling.rate)
                           : kSampleModulus;
  uint64_t total_refs = 0;
  uint64_t exact_distinct = 0;
  EPFIS_ASSIGN_OR_RETURN(StackDistanceHistogram raw,
                         ComputeParallel(trace, *pool, options, threshold,
                                         &total_refs, &exact_distinct));
  SampledStackDistances result;
  result.sampling.requested_rate = options.sampling.rate;
  result.sampling.requested_max_pages = options.sampling.max_pages;
  result.sampling.effective_rate =
      static_cast<double>(threshold) / static_cast<double>(kSampleModulus);
  result.sampling.total_refs = total_refs;
  result.sampling.sampled_refs = raw.accesses();
  // Fixed-rate never evicts, so every sampled page stays resident.
  result.sampling.sampled_pages = raw.distinct_pages();
  result.sampling.exact_distinct = exact_distinct;
  if (result.sampling.active()) {
    // Same wrap-time rescale as the serial kernel's sampled_result():
    // realized page ratio over the raw sampled-domain merge output, so
    // serial and sharded runs stay exactly equal.
    double factor =
        SampledDistanceScale(exact_distinct, raw.cold_misses(),
                             1.0 / result.sampling.effective_rate);
    result.histogram = RescaleSampledDistances(raw, factor);
  } else {
    result.histogram = std::move(raw);
  }
  PublishSamplingMetrics(result.sampling);
  return result;
}

}  // namespace epfis
