#include "buffer/stack_distance_kernel.h"

#include <algorithm>

namespace epfis {
namespace {

// Cap on the initial window. A longer trace gets its time axis bounded
// by compaction anyway — that is the point of the kernel — so a
// reference-sized initial tree would only re-create the legacy cache
// footprint; the window instead grows to track the distinct-page count.
constexpr size_t kMaxInitialWindow = size_t{1} << 16;

// Cap on the hash-table pre-size derived from the reference-count hint.
// Deliberately modest: growth rehashes are amortized O(1), while an
// oversized slot array is scanned in full by every compaction.
constexpr size_t kMaxInitialTableSize = size_t{1} << 17;

// How far ahead AccessAll prefetches last-access slots. Far enough to
// cover memory latency, near enough that the lines are still resident.
constexpr size_t kPrefetchAhead = 8;

// Reuse spans at most this many bitmap words wide are resolved by a
// direct popcount scan (CountRange) instead of the Fenwick prefix walk:
// the scanned words end at the current timestamp, where every recent
// reference just wrote, so they are L1-resident, and 16 words cover
// 1024 timestamps — the hot-page majority of a skewed trace.
constexpr uint64_t kScanWords = 16;

size_t InitialWindow(size_t expected_refs, size_t window_hint) {
  if (window_hint > 0) return std::max<size_t>(window_hint, 2);
  return std::clamp(expected_refs, size_t{1024}, kMaxInitialWindow);
}

// Pre-sizing input under sampling: only ~rate of the references survive
// the filter, so the window and table must be sized from the *sampled*
// volume — a 1% sample of a 10M-ref trace would otherwise allocate the
// full-trace window up front.
size_t SampledExpectedRefs(size_t expected_refs,
                           const SamplingOptions& sampling) {
  if (sampling.rate < 1.0) {
    expected_refs = static_cast<size_t>(
                        static_cast<double>(expected_refs) * sampling.rate) +
                    16;
  }
  return expected_refs;
}

size_t InitialTableEntries(size_t expected_refs) {
  // A modest fraction of the references are distinct pages in the traces
  // this models; the table grows itself if the guess is low.
  return std::min(expected_refs / 8 + 16, kMaxInitialTableSize);
}

}  // namespace

StackDistanceKernel::StackDistanceKernel(size_t expected_refs,
                                         size_t window_hint,
                                         SamplingOptions sampling)
    : window_(InitialWindow(SampledExpectedRefs(expected_refs, sampling),
                            window_hint)),
      live_(window_),
      last_access_(InitialTableEntries(
          SampledExpectedRefs(expected_refs, sampling))),
      sampling_(sampling),
      threshold_(sampling.enabled() ? SampleThresholdForRate(sampling.rate)
                                    : kSampleModulus),
      inv_rate_(static_cast<double>(kSampleModulus) /
                static_cast<double>(threshold_)) {}

void StackDistanceKernel::Access(PageId page_id) {
  if (sampling_.enabled()) {
    ++total_refs_;
    exact_seen_.TestAndSet(page_id);
    if (SampleHash(page_id) >= threshold_) return;
  }
  AccessSampled(page_id);
}

void StackDistanceKernel::AccessSampled(PageId page_id) {
  if (now_ == window_) Compact();
  auto [last, inserted] = last_access_.TryEmplace(page_id, now_);
  if (inserted) {
    histogram_.AddColdMiss();
    live_.Set(static_cast<size_t>(now_));
    ++now_;
  } else {
    uint64_t prev = *last;
    // Every page in the table owns exactly one live bit, all at times
    // < now, so the bits at [prev, now) are table_size - bits_below_prev
    // (CountBelow(0) sums an empty prefix — no underflow when prev == 0).
    // Short spans count those bits directly off the (hot) bitmap words;
    // long spans take the Fenwick walk. Same value either way.
    uint64_t d;
    if ((now_ >> 6) - (prev >> 6) <= kScanWords) {
      d = live_.CountRange(static_cast<size_t>(prev),
                           static_cast<size_t>(now_));
    } else {
      uint64_t below = live_.CountBelow(static_cast<size_t>(prev));
      d = static_cast<uint64_t>(last_access_.size()) - below;
    }
    histogram_.AddDistance(d);
    live_.MovePair(static_cast<size_t>(prev), static_cast<size_t>(now_));
    *last = now_;
    ++now_;
  }
}

void StackDistanceKernel::AccessRun(const PageId* refs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (i + kPrefetchAhead < count) {
      last_access_.Prefetch(refs[i + kPrefetchAhead]);
    }
    AccessSampled(refs[i]);
  }
}

void StackDistanceKernel::AccessAll(const PageId* trace, size_t count) {
  if (!sampling_.enabled()) {
    AccessRun(trace, count);
    return;
  }
  total_refs_ += count;
  // The threshold is static, so the filter can run for a whole chunk up
  // front — first-touch bitmap marks for every reference, survivors
  // gathered densely — and the survivors then go through the same
  // in-order run as an unfiltered trace. The decisions are identical to
  // the interleaved scalar loop because nothing the kernel does can
  // change them.
  PageId kept[512];
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    exact_seen_.TestAndSet(trace[i]);
    if (SampleHash(trace[i]) < threshold_) {
      kept[n++] = trace[i];
      if (n == sizeof(kept) / sizeof(kept[0])) {
        AccessRun(kept, n);
        n = 0;
      }
    }
  }
  if (n > 0) AccessRun(kept, n);
}

void StackDistanceKernel::Compact() {
  // The live bits are exactly the last-access values in the table; remap
  // them onto the dense prefix [0, distinct) preserving their order.
  // Distances only read the tree through "live bits below prev", which
  // an order-preserving remap leaves unchanged.
  size_t distinct = last_access_.size();
  sorted_positions_.clear();
  sorted_positions_.reserve(distinct);
  last_access_.ForEach([this](PageId, uint64_t pos) {
    sorted_positions_.push_back(pos);
  });
  std::sort(sorted_positions_.begin(), sorted_positions_.end());

  remap_.assign(static_cast<size_t>(now_), 0);
  for (size_t rank = 0; rank < sorted_positions_.size(); ++rank) {
    remap_[static_cast<size_t>(sorted_positions_[rank])] = rank;
  }
  last_access_.ForEachMutable([this](PageId, uint64_t& pos) {
    pos = remap_[static_cast<size_t>(pos)];
  });

  // Each compaction costs O(window + table capacity) — the table's slot
  // array is scanned in full to harvest and rewrite positions. Keep the
  // free span after compaction at least half the window AND at least
  // twice the slot-scan cost, so the total amortizes to O(1) per
  // reference regardless of the distinct-to-reference ratio.
  size_t min_window = std::max(distinct + 1, last_access_.capacity());
  if (min_window * 2 > window_) {
    size_t want = min_window * 4;
    while (window_ < want) window_ *= 2;
    ++window_resizes_;
  }
  live_.AssignPrefixOnes(distinct, window_);
  now_ = distinct;
  ++compactions_;
}

Status ValidatePageRefs(const PageId* refs, size_t count) {
  // An OR-reduction rather than std::find: no early exit, so the loop
  // vectorizes and costs a small fraction of the kernel's per-reference
  // work even at low sampling rates. The accumulator is a uint32_t, not a
  // bool: GCC 12 leaves a bool OR-reduction as a scalar compare-and-set
  // loop.
  uint32_t found = 0;
  for (size_t i = 0; i < count; ++i) found |= refs[i] == kInvalidPageId;
  if (found != 0) {
    return Status::InvalidArgument(
        "trace holds the reserved page id 0xFFFFFFFF");
  }
  return Status::Ok();
}

}  // namespace epfis
