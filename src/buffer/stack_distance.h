#ifndef EPFIS_BUFFER_STACK_DISTANCE_H_
#define EPFIS_BUFFER_STACK_DISTANCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "util/fenwick.h"

namespace epfis {

/// The distilled outcome of a Mattson stack simulation: total references,
/// cold (first-touch) misses, and the histogram of finite stack distances.
/// Produced by StackDistanceSimulator (the reference implementation) and
/// by StackDistanceKernel behind ComputeStackDistances; the two are
/// bit-identical on the same trace.
///
/// A buffer of B slots misses exactly on references with distance > B, so
///   fetches(B) = cold_misses + sum_{d > B} hist[d].
class StackDistanceHistogram {
 public:
  /// Records a first-touch (infinite-distance) reference.
  void AddColdMiss() {
    ++accesses_;
    ++cold_misses_;
  }

  /// Adds `count` first-touch references at once (histogram rescaling).
  void AddColdMisses(uint64_t count) {
    accesses_ += count;
    cold_misses_ += count;
  }

  /// Records a re-reference with finite stack distance `d` (d >= 1).
  void AddDistance(uint64_t d) {
    ++accesses_;
    if (d >= hist_.size()) hist_.resize(d + 1, 0);
    ++hist_[d];
    suffix_valid_ = false;
  }

  /// Adds `count` references at distance `d` at once (histogram
  /// rescaling).
  void AddDistances(uint64_t d, uint64_t count) {
    accesses_ += count;
    if (d >= hist_.size()) hist_.resize(d + 1, 0);
    hist_[d] += count;
    suffix_valid_ = false;
  }

  /// Number of page fetches a `buffer_size`-slot LRU buffer would have
  /// performed on the trace. `buffer_size == 0` means no buffer at all:
  /// every reference misses, so the total reference count is returned.
  uint64_t Fetches(uint64_t buffer_size) const;

  /// Fetch counts for several buffer sizes (any order).
  std::vector<uint64_t> FetchesForSizes(
      const std::vector<uint64_t>& buffer_sizes) const;

  /// Number of references recorded.
  uint64_t accesses() const { return accesses_; }

  /// First-touch misses; equals the number of distinct pages referenced.
  uint64_t cold_misses() const { return cold_misses_; }

  /// Distinct pages referenced — the paper's A ("pages accessed").
  uint64_t distinct_pages() const { return cold_misses_; }

  /// hist()[d] = number of references with stack distance exactly d
  /// (index 0 unused).
  const std::vector<uint64_t>& hist() const { return hist_; }

  friend bool operator==(const StackDistanceHistogram& a,
                         const StackDistanceHistogram& b) {
    return a.accesses_ == b.accesses_ && a.cold_misses_ == b.cold_misses_ &&
           a.TrimmedHist() == b.TrimmedHist();
  }

 private:
  /// hist_ without trailing zero buckets, so logically equal histograms
  /// compare equal regardless of resize history.
  std::vector<uint64_t> TrimmedHist() const;

  uint64_t accesses_ = 0;
  uint64_t cold_misses_ = 0;
  std::vector<uint64_t> hist_;            // hist_[d], d >= 1.
  mutable std::vector<uint64_t> suffix_;  // Cached suffix sums of hist_.
  mutable bool suffix_valid_ = false;
};

/// One-pass, every-buffer-size-at-once LRU simulation using the stack
/// property of LRU (Mattson et al., 1970) — the technique §4.1 of the paper
/// prescribes for Subprogram LRU-Fit ("the *stack* property of the LRU
/// algorithm is used to do the simulation ... using hash tables of buffer
/// pages").
///
/// For each reference, the LRU *stack distance* d is the 1-based depth of
/// the page in the LRU stack (infinite for first touches). Distances are
/// computed in O(log n) per reference with a Fenwick tree over reference
/// timestamps (position t is 1 iff the page referenced at time t has not
/// been referenced since), plus a hash map page -> last reference time.
///
/// This is the *reference* implementation: deliberately simple, kept as
/// the oracle the property tests and benchmarks compare against. The
/// production entry points (ComputeStackDistances, RunLruFit) run the
/// cache-conscious StackDistanceKernel instead, which produces
/// bit-identical histograms several times faster on large traces.
class StackDistanceSimulator {
 public:
  /// `expected_refs` pre-sizes the timestamp tree; the simulator grows
  /// automatically if the trace is longer.
  explicit StackDistanceSimulator(size_t expected_refs = 1024);

  /// Processes one page reference.
  void Access(PageId page_id);

  /// Processes a whole reference string.
  void AccessAll(const std::vector<PageId>& trace);

  /// Processes `count` references from a buffer (chunked streaming).
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

  /// Number of distinct pages referenced — the paper's A ("pages accessed").
  uint64_t distinct_pages() const { return histogram_.distinct_pages(); }

  /// First-touch misses (stack distance infinity); equals distinct_pages().
  uint64_t cold_misses() const { return histogram_.cold_misses(); }

  /// Histogram of finite stack distances: hist()[d] = number of references
  /// with stack distance exactly d (index 0 unused).
  const std::vector<uint64_t>& hist() const { return histogram_.hist(); }

  /// The accumulated histogram.
  const StackDistanceHistogram& histogram() const { return histogram_; }

 private:
  uint64_t now_ = 0;  // Next reference timestamp.
  FenwickTree live_;  // 1 at positions that are some page's last access.
  std::unordered_map<PageId, uint64_t> last_access_;
  StackDistanceHistogram histogram_;
};

}  // namespace epfis

#endif  // EPFIS_BUFFER_STACK_DISTANCE_H_
