#include "buffer/stack_distance_kernel.h"

#include <algorithm>

namespace epfis {
namespace {

// Cap on the initial window. A longer trace gets its time axis bounded
// by compaction anyway — that is the point of the kernel — so a
// reference-sized initial tree would only re-create the legacy cache
// footprint; the window instead grows to track the table size.
constexpr size_t kMaxInitialWindow = size_t{1} << 16;

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

}  // namespace

StackDistanceKernel::StackDistanceKernel(size_t expected_refs,
                                         size_t window_hint,
                                         SamplingOptions sampling)
    : window_(InitialWindow(SampledExpectedRefs(expected_refs, sampling),
                            window_hint)),
      live_(window_),
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
  live_.Advance(static_cast<size_t>(now_));
  if (page_id >= last_access_.size()) {
    last_access_.resize(std::bit_ceil(size_t{page_id} + 1), kNever);
  }
  uint32_t& last = last_access_[page_id];
  if (last == kNever) {
    histogram_.AddColdMiss();
    live_.Set(static_cast<size_t>(now_));
  } else {
    histogram_.AddDistance(live_.Move(last, static_cast<size_t>(now_),
                                      histogram_.cold_misses()));
  }
  last = static_cast<uint32_t>(now_++);
}

void StackDistanceKernel::AccessAll(const PageId* trace, size_t count) {
  if (!sampling_.enabled()) {
    for (size_t i = 0; i < count; ++i) AccessSampled(trace[i]);
    return;
  }
  total_refs_ += count;
  for (size_t i = 0; i < count; ++i) {
    exact_seen_.TestAndSet(trace[i]);
    if (SampleHash(trace[i]) < threshold_) AccessSampled(trace[i]);
  }
}

void StackDistanceKernel::Compact() {
  // Each live time becomes its rank among the live times, so the live
  // bits become the dense prefix [0, distinct) in the same order.
  // Distances only read the bits through "live bits below prev", which an
  // order-preserving rewrite leaves unchanged.
  live_.PrepareRanks();
  for (uint32_t& t : last_access_) {
    if (t != kNever) t = live_.Rank(t);
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
  for (size_t i = 0; i < count; ++i) found |= refs[i] >= kPageIdLimit;
  if (found != 0) {
    return Status::InvalidArgument(
        "trace holds a page id at or above the limit 2^24");
  }
  return Status::Ok();
}

}  // namespace epfis
