#ifndef EPFIS_BUFFER_DECAYED_WINDOW_H_
#define EPFIS_BUFFER_DECAYED_WINDOW_H_

#include <cstdint>
#include <vector>

#include "buffer/sampling.h"
#include "buffer/stack_distance.h"

namespace epfis {

/// Exponentially-decayed sliding window over a StackDistanceKernel's
/// cumulative output — the windowed-emission half of online LRU-Fit
/// (DESIGN.md §14).
///
/// The kernel's histogram is strictly cumulative: compactions remap live
/// positions but never rewrite already-emitted distances, so every
/// per-bucket count is monotone non-decreasing. That makes the
/// reference string between two emissions exactly the element-wise
/// difference of the cumulative state — no hook inside the Mattson inner
/// loop is needed. Absorb() takes that delta and folds it into
/// double-weighted accumulators that are first decayed by
///
///     lambda = exp(-delta_refs / window_refs)
///
/// so a reference's weight decays as exp(-age / W): the accumulators
/// behave like counts over "the last W references" (an exponential window
/// of mean age W rather than a hard cutoff, which would require keeping
/// the refs). Memory is O(histogram buckets) regardless of stream length.
///
/// All weights live in the kernel's emission domain (raw sampled counts
/// at raw sampled-domain distances); consumers re-weight them the same
/// way SampledStackDistances does, and OnlineLruFit turns the tail
/// ratio TailWeight(b) / re-reference weight into a live FPF curve.
class DecayedReuseWindow {
 public:
  /// `window_refs` is W, the decay scale in references; must be > 0.
  explicit DecayedReuseWindow(uint64_t window_refs);

  /// Folds everything the kernel emitted since the previous Absorb into
  /// the decayed window, in one O(bins) pass that also rebuilds the tail
  /// sums TailWeight reads. `hist` and `summary` must come from the same
  /// kernel this window has been tracking (cumulative counts only grow);
  /// the first call absorbs the whole history with weight 1.
  void Absorb(const StackDistanceHistogram& hist,
              const SamplingSummary& summary);

  /// Decayed weight of all references (sampled or not) in the window.
  double total_weight() const { return total_; }

  /// Decayed weight of first-touch (cold) sampled references.
  double cold_weight() const { return cold_; }

  /// Decayed weight of sampled re-references (sampled minus cold).
  double reref_weight() const { return sampled_ - cold_; }

  /// Decayed weight of sampled re-references whose reuse distance
  /// exceeds `buffer_size` — the window analog of
  /// histogram.Fetches(b) - cold_misses(). O(1): Absorb keeps the tail
  /// sums, so reading a curve at |sizes| points costs |sizes| lookups.
  double TailWeight(uint64_t buffer_size) const;

  /// Fractional-boundary tail: linearly interpolates between the integer
  /// tails at floor(buffer_size) and floor(buffer_size) + 1, treating the
  /// bucket that straddles the boundary as uniformly spread. Fixed-rate
  /// sampled queries land between sampled-domain buckets (a full-trace
  /// size b maps to 1 + (b-1)/factor); rounding to the nearer bucket
  /// staircases the deep tail, while this keeps the curve monotone in b.
  /// Exactly TailWeight(b) whenever buffer_size is the integer b.
  double TailWeightAt(double buffer_size) const;

  /// Absorb calls so far (observability; the online engine's refresh
  /// counter mirrors it).
  uint64_t absorbs() const { return absorbs_; }

 private:
  uint64_t window_refs_;
  uint64_t absorbs_ = 0;

  // Decayed accumulators (emission domain, see class comment).
  std::vector<double> decayed_hist_;  // Bucket d >= 1: re-ref distances.
  // tail_[d] = decayed weight at distances >= d, for 1 <= d below
  // decayed_hist_.size(); the one entry past the top bin is 0. Each is
  // summed from the top bin down, the order the published knots' bits
  // depend on.
  std::vector<double> tail_;
  double cold_ = 0.0;
  double sampled_ = 0.0;
  double total_ = 0.0;

  // Cumulative kernel state at the previous Absorb, for the delta.
  std::vector<uint64_t> prev_hist_;
  uint64_t prev_cold_ = 0;
  uint64_t prev_sampled_ = 0;
  uint64_t prev_total_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_BUFFER_DECAYED_WINDOW_H_
