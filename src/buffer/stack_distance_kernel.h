#ifndef EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_
#define EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "buffer/sampling.h"
#include "buffer/stack_distance.h"
#include "storage/page.h"
#include "util/status.h"

namespace epfis {

/// Cache-conscious rewrite of StackDistanceSimulator's hot loop. Produces a
/// bit-identical StackDistanceHistogram on every trace (the property tests
/// assert it); the legacy simulator remains as the reference
/// implementation and for old-vs-new benchmarking.
///
/// Three changes over the legacy loop, each attacking a cache problem:
///
///  1. **Dense last-access table.** Page ids are dense table page numbers
///     (storage/page.h), so page p's last access is entry p of a uint32
///     array, grown to the next power of two on demand: one load per
///     reference, with no hashing and no probing. Ids are bounded by
///     kPageIdLimit, so the array is too. Under sampling the array still
///     spans the largest sampled id, so it is sized by the table, not by
///     the sample.
///
///  2. **A bitmap head in front of the Fenwick tree.** Every page owns
///     exactly one live bit, at its last-access time. The bits sit in
///     64-bit words. The newest kHeadWords words (the head, which always
///     holds `now`) stay out of the tree, which sums the popcounts of the
///     older words only. So a first touch is one bit flip. A
///     re-reference whose previous access lies in the head counts its
///     distance off at most kHeadWords bitmap words and moves its bit
///     without touching the tree. An older one costs one prefix walk —
///     every live bit is a distinct page, so the bits at [prev, now) are
///     distinct − CountBelow(prev) — and one point update to clear the
///     old bit. When `now` is kHeadWords words past the head's start, the
///     oldest half of the head is folded into the tree, one point update
///     per non-empty word.
///
///  3. **Timestamp compaction.** The legacy tree is indexed by reference
///     timestamp and grows with the trace. Distances depend only on the
///     relative order of the live bits, so when `now` reaches the window
///     capacity the kernel rewrites each page's live time, in place, to
///     its rank among the live times and restarts the clock at
///     `distinct`: the histogram is unchanged and the time axis stays
///     O(table size), not O(references). A rank is one masked popcount
///     plus a per-word prefix count, so a compaction costs one pass over
///     the table and one over the bitmap. The window is kept at least
///     twice max(distinct + 1, table size) and grown to four times that,
///     so each compaction frees at least half the window and its cost
///     amortizes to O(1) per reference.
///
/// Every reference, whichever entry point it came through, runs one loop
/// per chunk that keeps the clock, the head, the distinct count and raw
/// pointers to the bitmap, tree, table and histogram bins in locals, and
/// writes them back once per chunk and around each compaction. The bins
/// grow on first touches to cover distinct + 1, so a re-reference stores
/// its distance without a bounds check. Without sampling, the loop
/// prefetches the table entry of the reference 16 ahead, which pays most
/// once the table and bins spill out of L2.
///
/// On top of the exact machinery sits optional SHARDS-style spatial
/// sampling at a fixed rate (see sampling.h): references whose page hash
/// falls above a threshold are dropped before they touch the table or
/// tree, and the exact kernel runs over the surviving subset. The skip
/// path additionally marks every page — sampled or not — in a first-touch
/// bitmap, so the full-trace cold-miss count stays exact and
/// sampled_result() can rescale the sampled distance axis by the
/// *realized* page ratio (P - 1)/(K - 1); the kernel's own histogram
/// stays in the raw sampled domain. With sampling off (rate 1.0) every
/// code path below is the exact kernel's and the histogram is
/// bit-identical.
///
/// Every page id must be below kPageIdLimit. Callers that feed references
/// from outside the program check each chunk with ValidatePageRefs first.
class StackDistanceKernel {
 public:
  /// `expected_refs` pre-sizes the timestamp window (pass
  /// TraceSource::size_hint() when known); under sampling the pre-sizing
  /// uses `expected_refs * rate`, so a 1% sample of a huge trace does not
  /// allocate a full-trace window.
  /// `window_hint` overrides the initial window capacity; tests pass tiny
  /// values to force compactions on short traces.
  explicit StackDistanceKernel(size_t expected_refs = 1024,
                               size_t window_hint = 0,
                               SamplingOptions sampling = {});

  /// Processes one page reference.
  void Access(PageId page_id) { AccessAll(&page_id, 1); }

  /// Processes a whole reference string.
  void AccessAll(const std::vector<PageId>& trace) {
    AccessAll(trace.data(), trace.size());
  }

  /// Processes `count` references from a buffer (chunked streaming; the
  /// main entry point). Resolution is strictly in trace order, so the
  /// histogram does not depend on how the caller chunks the trace.
  void AccessAll(const PageId* trace, size_t count);

  /// Number of page fetches a `buffer_size`-slot LRU buffer would have
  /// performed on the trace so far. `buffer_size == 0` returns the total
  /// reference count (no buffer: every access misses).
  uint64_t Fetches(uint64_t buffer_size) const {
    return histogram_.Fetches(buffer_size);
  }

  /// Fetch counts for several buffer sizes (any order).
  std::vector<uint64_t> FetchesForSizes(
      const std::vector<uint64_t>& buffer_sizes) const {
    return histogram_.FetchesForSizes(buffer_sizes);
  }

  /// Number of references processed.
  uint64_t accesses() const { return histogram_.accesses(); }

  /// Number of distinct pages referenced — the paper's A.
  uint64_t distinct_pages() const { return histogram_.distinct_pages(); }

  /// First-touch misses; equals distinct_pages().
  uint64_t cold_misses() const { return histogram_.cold_misses(); }

  /// Distinct pages of the full trace: the first-touch bitmap's exact
  /// count when sampling is on, the cold-miss count otherwise. Equals
  /// sampled_result().distinct_pages() without copying the histogram.
  uint64_t trace_distinct_pages() const {
    return sampling_.enabled() ? exact_seen_.distinct()
                               : histogram_.cold_misses();
  }

  /// The accumulated histogram.
  const StackDistanceHistogram& histogram() const { return histogram_; }

  /// Compactions performed so far (observability; tests assert > 0 when
  /// they mean to exercise the compaction path).
  uint64_t compactions() const { return compactions_; }

  /// Compactions that also had to grow the timestamp window (the distinct
  /// page count outpaced the initial sizing).
  uint64_t window_resizes() const { return window_resizes_; }

  /// What the sampling filter did. With sampling inactive this reports an
  /// exact pass (total == sampled, effective rate 1). Note that under
  /// active sampling the raw accessors above describe the *sampled*
  /// subset (distances in the raw sampled domain, counts raw); full-trace
  /// estimates come from sampled_result().
  SamplingSummary sampling_summary() const {
    SamplingSummary s;
    s.effective_rate = static_cast<double>(threshold_) /
                       static_cast<double>(kSampleModulus);
    s.total_refs = sampling_.enabled() ? total_refs_ : histogram_.accesses();
    s.sampled_refs = histogram_.accesses();
    s.exact_distinct = sampling_.enabled() ? exact_seen_.distinct() : 0;
    return s;
  }

  /// The full-trace estimate view over this run (copies the histogram).
  /// Sampled runs rescale the sampled distance axis here, by the realized
  /// page ratio (exact distinct − 1) / (sampled distinct − 1).
  SampledStackDistances sampled_result() const {
    SamplingSummary s = sampling_summary();
    if (s.active()) {
      double factor = SampledDistanceScale(
          s.exact_distinct, histogram_.cold_misses(), inv_rate_);
      return SampledStackDistances{
          RescaleSampledDistances(histogram_, factor), s};
    }
    return SampledStackDistances{histogram_, s};
  }

  /// Distinct pages in the sampled set (== distinct_pages()).
  size_t sampled_pages() const { return histogram_.cold_misses(); }

 private:
  // The per-reference loop over one chunk, with the sampling filter
  // compiled in or out.
  template <bool kSampled>
  void Run(const PageId* trace, size_t count);

  void Compact();

  // Reinitializes the live bits to window_ positions with [0, ones) live,
  // in O(window_ / 64). The head starts at the word of `ones`, the next
  // timestamp.
  void ResetLiveBits(size_t ones);

  // Last-access table entry of a page never referenced.
  static constexpr uint32_t kNever = UINT32_MAX;

  uint64_t now_ = 0;   // Next timestamp on the (compacted) time axis.
  size_t window_ = 0;  // Time-axis capacity; now_ < window_ between accesses.

  // Live bits over the compacted time axis: one bit per timestamp in
  // 64-bit words, with a Fenwick tree over the popcounts of the words
  // below the head. A window of W timestamps costs W/8 bytes of bitmap
  // plus W/16 bytes of tree (uint32 nodes), so with the window kept at
  // O(table size) the structure sits in L2. Word counts are live-bit
  // counts, bounded by kPageIdLimit, and the -1 updates wrap modularly,
  // so sums stay exact.
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> tree_;  // 1-based; size bits_.size() + 1.
  size_t head_ = 0;             // First word kept out of the tree.

  // By page id; kNever if untouched. Never empty, so the lookahead's
  // masked prefetch always lands inside it.
  std::vector<uint32_t> last_access_ = std::vector<uint32_t>(1, kNever);
  StackDistanceHistogram histogram_;
  uint64_t compactions_ = 0;
  uint64_t window_resizes_ = 0;

  // Sampling state, fixed for the kernel's lifetime. When sampling is
  // enabled, cold misses are tracked exactly for every page via the
  // first-touch bitmap, and distances stay in the raw sampled domain
  // until sampled_result() rescales them.
  SamplingOptions sampling_;
  uint64_t threshold_ = kSampleModulus;
  double inv_rate_ = 1.0;  // kSampleModulus / threshold_.
  PageSeenSet exact_seen_;
  uint64_t total_refs_ = 0;  // All references seen; bumped only when
                             // sampling is enabled (else == accesses()).
};

/// Page ids a trace may hold lie below this limit: 2^24, 16x the largest
/// table this repository builds (1M pages). The kernel's last-access
/// table and the sampled path's first-touch bitmap are dense arrays
/// indexed by page id, so the limit bounds them at 64 MiB and 2 MiB
/// whatever a trace file holds. kInvalidPageId lies above it.
inline constexpr PageId kPageIdLimit = PageId{1} << 24;

/// InvalidArgument if `refs[0, count)` holds an id at or above
/// kPageIdLimit. Every streamed feed into the kernel (RunLruFit,
/// SampleFpfCurve, ComputeSampledStackDistances, OnlineLruFit::Ingest)
/// checks each chunk with it before the kernel sees the chunk. One
/// branch-free pass over the chunk.
Status ValidatePageRefs(const PageId* refs, size_t count);

}  // namespace epfis

#endif  // EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_
