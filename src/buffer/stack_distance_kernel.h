#ifndef EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_
#define EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_

#include <bit>
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
  void Access(PageId page_id);

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
  // Live bits over the compacted time axis: one bit per timestamp in
  // 64-bit words, with a Fenwick tree over the popcounts of the words
  // below the head. A window of W timestamps costs W/8 bytes of bitmap
  // plus W/16 bytes of tree (uint32 nodes), so with the window kept at
  // O(table size) the structure sits in L2. Word counts are live-bit
  // counts, bounded by kPageIdLimit, and the -1 updates wrap modularly,
  // so sums stay exact.
  class LiveTree {
   public:
    explicit LiveTree(size_t n) { AssignPrefixOnes(0, n); }

    /// Marks `now`, which lies in the head, live.
    void Set(size_t now) { bits_[now >> 6] |= Bit(now); }

    /// Live bits in [prev, now) given `live` bits in all, then moves the
    /// bit at `prev` to `now`. A head `prev` is counted off the bitmap;
    /// an older one takes one prefix walk and one point update.
    uint64_t Move(size_t prev, size_t now, uint64_t live) {
      size_t word = prev >> 6;
      uint64_t d;
      if (word >= head_) {
        d = CountRange(prev, now);
      } else {
        d = live - CountBelow(prev);
        Add(word, static_cast<uint32_t>(-1));
      }
      bits_[word] &= ~Bit(prev);
      Set(now);
      return d;
    }

    /// Keeps the head at most kHeadWords words wide, ending at `now`'s
    /// word: folds its oldest half into the tree once it is full.
    void Advance(size_t now) {
      if ((now >> 6) - head_ < kHeadWords) return;
      Fold(head_ + kHeadWords / 2);
    }

    /// Replaces the tree by each word's count of live bits in the words
    /// below it, so Rank runs in O(1) anywhere. AssignPrefixOnes must
    /// follow before the next Move or Advance.
    void PrepareRanks() {
      uint32_t below = 0;
      for (size_t w = 0; w < bits_.size(); ++w) {
        tree_[w] = below;
        below += static_cast<uint32_t>(std::popcount(bits_[w]));
      }
    }

    /// Number of live bits below `i`, after PrepareRanks.
    uint32_t Rank(size_t i) const {
      return tree_[i >> 6] + static_cast<uint32_t>(std::popcount(
                                 bits_[i >> 6] & (Bit(i) - 1)));
    }

    /// Reinitializes to `n` positions with [0, ones) live, in O(n / 64).
    /// The head starts at the word of `ones`, the next timestamp.
    void AssignPrefixOnes(size_t ones, size_t n) {
      size_t words = (n >> 6) + 1;
      head_ = ones >> 6;
      bits_.assign(words, 0);
      tree_.assign(words + 1, 0);
      for (size_t i = 0; i < head_; ++i) bits_[i] = ~uint64_t{0};
      if (ones & 63) bits_[head_] = Bit(ones) - 1;
      for (size_t i = 1; i <= words; ++i) {
        if (i <= head_) tree_[i] += 64;
        size_t parent = i + (i & (~i + 1));
        if (parent <= words) tree_[parent] += tree_[i];
      }
    }

   private:
    static constexpr size_t kHeadWords = 16;

    static uint64_t Bit(size_t i) { return uint64_t{1} << (i & 63); }

    // Number of live bits at positions strictly below `i`, which must lie
    // below the head (i == 0 sums an empty prefix and returns 0).
    uint64_t CountBelow(size_t i) const {
      size_t word = i >> 6;
      uint32_t sum = static_cast<uint32_t>(
          std::popcount(bits_[word] & (Bit(i) - 1)));
      for (size_t p = word; p > 0; p -= p & (~p + 1)) sum += tree_[p];
      return sum;
    }

    // Live bits in [lo, hi), lo < hi, counted off the bitmap words.
    uint64_t CountRange(size_t lo, size_t hi) const {
      size_t lo_word = lo >> 6;
      size_t hi_word = hi >> 6;
      uint64_t low = bits_[lo_word] & ~(Bit(lo) - 1);
      if (lo_word == hi_word) {
        return static_cast<uint64_t>(std::popcount(low & (Bit(hi) - 1)));
      }
      uint64_t sum = static_cast<uint64_t>(std::popcount(low));
      for (size_t w = lo_word + 1; w < hi_word; ++w) {
        sum += static_cast<uint64_t>(std::popcount(bits_[w]));
      }
      return sum + static_cast<uint64_t>(
                       std::popcount(bits_[hi_word] & (Bit(hi) - 1)));
    }

    // Moves the head's start to `end`, adding each non-empty word's
    // popcount to the tree.
    void Fold(size_t end) {
      for (; head_ < end; ++head_) {
        if (bits_[head_] != 0) {
          Add(head_, static_cast<uint32_t>(std::popcount(bits_[head_])));
        }
      }
    }

    // Fenwick point update at `word` (1-based internally).
    void Add(size_t word, uint32_t delta) {
      for (size_t p = word + 1; p < tree_.size(); p += p & (~p + 1)) {
        tree_[p] += delta;
      }
    }

    std::vector<uint64_t> bits_;  // Live bits.
    std::vector<uint32_t> tree_;  // Fenwick tree over the popcounts of
                                  // the words below head_.
    size_t head_ = 0;             // First word kept out of the tree.
  };

  void Compact();

  // One filtered reference: the exact per-reference path. Callers have
  // already counted the reference and applied the hash filter when
  // sampling is enabled.
  void AccessSampled(PageId page_id);

  // Last-access table entry of a page never referenced.
  static constexpr uint32_t kNever = UINT32_MAX;

  uint64_t now_ = 0;   // Next timestamp on the (compacted) time axis.
  size_t window_ = 0;  // Time-axis capacity; now_ < window_ between accesses.
  LiveTree live_;
  std::vector<uint32_t> last_access_;  // By page id; kNever if untouched.
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
