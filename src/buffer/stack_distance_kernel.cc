#include "buffer/stack_distance_kernel.h"

#include <algorithm>
#include <bit>

namespace epfis {
namespace {

// Cap on the initial window. A longer trace gets its time axis bounded
// by compaction anyway — that is the point of the kernel — so a
// reference-sized initial tree would only re-create the legacy cache
// footprint; the window instead grows to track the table size.
constexpr size_t kMaxInitialWindow = size_t{1} << 16;

// Width of the bitmap head, in words, kept out of the Fenwick tree.
constexpr size_t kHeadWords = 16;

// References between a last-access prefetch and its use.
constexpr size_t kLookahead = 16;

size_t InitialWindow(size_t expected_refs, size_t window_hint) {
  if (window_hint > 0) return std::max<size_t>(window_hint, 2);
  return std::clamp(expected_refs, size_t{1024}, kMaxInitialWindow);
}

// Pre-sizing input under sampling: only ~rate of the references survive
// the filter, so the window must be sized from the *sampled* volume — a
// 1% sample of a 10M-ref trace would otherwise allocate the full-trace
// window up front.
size_t SampledExpectedRefs(size_t expected_refs,
                           const SamplingOptions& sampling) {
  if (sampling.rate < 1.0) {
    expected_refs = static_cast<size_t>(
                        static_cast<double>(expected_refs) * sampling.rate) +
                    16;
  }
  return expected_refs;
}

uint64_t Bit(size_t i) { return uint64_t{1} << (i & 63); }

uint32_t Popcount(uint64_t word) {
  return static_cast<uint32_t>(std::popcount(word));
}

// Fenwick point update at `word` (1-based internally).
void TreeAdd(uint32_t* tree, size_t tree_size, size_t word, uint32_t delta) {
  for (size_t p = word + 1; p < tree_size; p += p & (~p + 1)) {
    tree[p] += delta;
  }
}

// Number of live bits at positions strictly below `i`, which must lie
// below the head (i == 0 sums an empty prefix and returns 0).
uint32_t CountBelow(const uint64_t* bits, const uint32_t* tree, size_t i) {
  size_t word = i >> 6;
  uint32_t sum = Popcount(bits[word] & (Bit(i) - 1));
  for (size_t p = word; p > 0; p -= p & (~p + 1)) sum += tree[p];
  return sum;
}

// Live bits in [lo, hi), lo < hi, counted off the bitmap words.
uint32_t CountRange(const uint64_t* bits, size_t lo, size_t hi) {
  size_t lo_word = lo >> 6;
  size_t hi_word = hi >> 6;
  uint64_t low = bits[lo_word] & ~(Bit(lo) - 1);
  if (lo_word == hi_word) return Popcount(low & (Bit(hi) - 1));
  uint32_t sum = Popcount(low);
  for (size_t w = lo_word + 1; w < hi_word; ++w) sum += Popcount(bits[w]);
  return sum + Popcount(bits[hi_word] & (Bit(hi) - 1));
}

}  // namespace

StackDistanceKernel::StackDistanceKernel(size_t expected_refs,
                                         size_t window_hint,
                                         SamplingOptions sampling)
    : window_(InitialWindow(SampledExpectedRefs(expected_refs, sampling),
                            window_hint)),
      sampling_(sampling),
      threshold_(sampling.enabled() ? SampleThresholdForRate(sampling.rate)
                                    : kSampleModulus),
      inv_rate_(static_cast<double>(kSampleModulus) /
                static_cast<double>(threshold_)) {
  ResetLiveBits(0);
}

void StackDistanceKernel::AccessAll(const PageId* trace, size_t count) {
  if (sampling_.enabled()) {
    total_refs_ += count;
    Run<true>(trace, count);
  } else {
    Run<false>(trace, count);
  }
}

template <bool kSampled>
void StackDistanceKernel::Run(const PageId* trace, size_t count) {
  // The loop state lives in locals. As members, every uint64_t store into
  // the bins could alias them and force a reload per reference.
  uint64_t now = now_;
  size_t head = head_;
  size_t window = window_;
  uint64_t distinct = histogram_.cold_misses_;
  uint64_t resolved = 0;  // References that passed the filter.
  uint64_t* bits = bits_.data();
  uint32_t* tree = tree_.data();
  size_t tree_size = tree_.size();
  uint32_t* table = last_access_.data();
  size_t table_mask = last_access_.size() - 1;  // The size is a power of 2.
  uint64_t* bins = histogram_.hist_.data();
  size_t bins_size = histogram_.hist_.size();
  const uint64_t threshold = threshold_;

  auto store = [&] {
    now_ = now;
    head_ = head;
    histogram_.cold_misses_ = distinct;
    histogram_.accesses_ += resolved;
    histogram_.suffix_valid_ = false;
    resolved = 0;
  };

  for (size_t i = 0; i < count; ++i) {
    const PageId page = trace[i];
    // Masked, so an id past the table prefetches a line inside it. The
    // sampled loop skips it: most of its references never reach the
    // table, and the wasted prefetches cost more than the hits save.
    if (!kSampled && i + kLookahead < count) {
      __builtin_prefetch(table + (trace[i + kLookahead] & table_mask));
    }
    if constexpr (kSampled) {
      exact_seen_.TestAndSet(page);
      if (SampleHash(page) >= threshold) continue;
    }
    if (now == window) {
      store();
      Compact();
      now = now_;
      head = head_;
      window = window_;
      bits = bits_.data();
      tree = tree_.data();
      tree_size = tree_.size();
    }
    // Keep the head at most kHeadWords words wide, ending at now's word:
    // fold its oldest half into the tree once it is full, one point
    // update per non-empty word.
    if ((now >> 6) - head >= kHeadWords) {
      for (size_t end = head + kHeadWords / 2; head < end; ++head) {
        if (bits[head] != 0) {
          TreeAdd(tree, tree_size, head, Popcount(bits[head]));
        }
      }
    }
    if (page > table_mask) {
      last_access_.resize(std::bit_ceil(size_t{page} + 1), kNever);
      table = last_access_.data();
      table_mask = last_access_.size() - 1;
    }
    uint32_t& last = table[page];
    if (last == kNever) {
      // A distance never exceeds distinct, so bins up to distinct make
      // every re-reference's store in bounds.
      if (++distinct >= bins_size) {
        histogram_.hist_.resize(std::bit_ceil(distinct + 1), 0);
        bins = histogram_.hist_.data();
        bins_size = histogram_.hist_.size();
      }
    } else {
      // Every live bit is a distinct page, so the distance is the live
      // bits in [prev, now): off the bitmap when prev lies in the head,
      // else distinct - CountBelow(prev), with one point update to clear
      // the old bit.
      size_t prev = last;
      size_t word = prev >> 6;
      uint32_t d;
      if (word >= head) {
        d = CountRange(bits, prev, static_cast<size_t>(now));
      } else {
        d = static_cast<uint32_t>(distinct) - CountBelow(bits, tree, prev);
        TreeAdd(tree, tree_size, word, static_cast<uint32_t>(-1));
      }
      bits[word] &= ~Bit(prev);
      ++bins[d];
    }
    bits[now >> 6] |= Bit(static_cast<size_t>(now));
    last = static_cast<uint32_t>(now++);
    ++resolved;
  }
  store();
}

void StackDistanceKernel::Compact() {
  // Each live time becomes its rank among the live times, so the live
  // bits become the dense prefix [0, distinct) in the same order.
  // Distances only read the bits through "live bits below prev", which an
  // order-preserving rewrite leaves unchanged. The tree first becomes
  // each word's count of live bits in the words below it, so a rank is
  // one lookup plus one masked popcount.
  uint32_t below = 0;
  for (size_t w = 0; w < bits_.size(); ++w) {
    tree_[w] = below;
    below += Popcount(bits_[w]);
  }
  for (uint32_t& t : last_access_) {
    if (t != kNever) {
      t = tree_[t >> 6] + Popcount(bits_[t >> 6] & (Bit(t) - 1));
    }
  }

  // Each compaction walks the whole table and the window's words. Keep
  // the free span after compaction at least half the window AND at least
  // the table size, so the total amortizes to O(1) per reference
  // regardless of the distinct-to-reference ratio.
  size_t distinct = static_cast<size_t>(histogram_.cold_misses());
  size_t min_window = std::max(distinct + 1, last_access_.size());
  if (min_window * 2 > window_) {
    size_t want = min_window * 4;
    while (window_ < want) window_ *= 2;
    ++window_resizes_;
  }
  ResetLiveBits(distinct);
  now_ = distinct;
  ++compactions_;
}

void StackDistanceKernel::ResetLiveBits(size_t ones) {
  size_t words = (window_ >> 6) + 1;
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

Status ValidatePageRefs(const PageId* refs, size_t count) {
  // An OR-reduction rather than std::find: no early exit, so the loop
  // vectorizes and costs a small fraction of the kernel's per-reference
  // work even at low sampling rates. The accumulator is a uint32_t, not a
  // bool: GCC 12 leaves a bool OR-reduction as a scalar compare-and-set
  // loop.
  uint32_t found = 0;
  for (size_t i = 0; i < count; ++i) found |= refs[i] >= kPageIdLimit;
  if (found != 0) {
    return Status::InvalidArgument(
        "trace holds a page id at or above the limit 2^24");
  }
  return Status::Ok();
}

}  // namespace epfis
