#include "buffer/decayed_window.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace epfis {

DecayedReuseWindow::DecayedReuseWindow(uint64_t window_refs)
    : window_refs_(window_refs) {
  assert(window_refs_ > 0 && "window_refs must be positive");
  if (window_refs_ == 0) window_refs_ = 1;
}

void DecayedReuseWindow::Absorb(const StackDistanceHistogram& hist,
                                const SamplingSummary& summary) {
  const std::vector<uint64_t>& cur = hist.hist();
  const uint64_t cur_cold = hist.cold_misses();
  const uint64_t cur_sampled = hist.accesses();
  const uint64_t cur_total = summary.total_refs;

  // How far the stream advanced since the last emission, in *raw*
  // references (sampled runs still age by wall-stream time, not by how
  // many references happened to pass the filter).
  const uint64_t delta_total =
      cur_total > prev_total_ ? cur_total - prev_total_ : 0;

  // The weights decay only between two absorbs that the stream advanced
  // across; multiplying by 1.0 otherwise leaves every weight bit-exact.
  const double lambda =
      delta_total > 0 && absorbs_ > 0
          ? std::exp(-static_cast<double>(delta_total) /
                     static_cast<double>(window_refs_))
          : 1.0;
  cold_ *= lambda;
  sampled_ *= lambda;
  total_ *= lambda;

  // One descending pass decays each bin, adds the kernel's delta (the
  // cumulative counts are monotone, see class comment) and records the
  // running sum from the top bin down, so tail_[d] is the weight at
  // distances >= d, summed in the order a top-down walk would add it.
  const size_t bins = std::max(cur.size(), decayed_hist_.size());
  decayed_hist_.resize(bins, 0.0);
  prev_hist_.resize(bins, 0);
  tail_.resize(bins + 1, 0.0);  // tail_[bins] stays 0: nothing above.
  double tail = 0.0;
  for (size_t d = bins; d-- > 1;) {
    double w = decayed_hist_[d] * lambda;
    if (d < cur.size()) {
      w += static_cast<double>(cur[d] - prev_hist_[d]);
      prev_hist_[d] = cur[d];
    }
    decayed_hist_[d] = w;
    tail += w;
    tail_[d] = tail;
  }

  cold_ += static_cast<double>(cur_cold - prev_cold_);
  sampled_ += static_cast<double>(cur_sampled - prev_sampled_);
  total_ += static_cast<double>(delta_total);

  prev_cold_ = cur_cold;
  prev_sampled_ = cur_sampled;
  prev_total_ = cur_total;
  ++absorbs_;
}

double DecayedReuseWindow::TailWeight(uint64_t buffer_size) const {
  // tail_ holds one entry past the top bin, so b + 1 stays in range for
  // every b below the bin count.
  return buffer_size < decayed_hist_.size() ? tail_[buffer_size + 1] : 0.0;
}

double DecayedReuseWindow::TailWeightAt(double buffer_size) const {
  if (buffer_size <= 0.0) return TailWeight(0);
  double floor_b = std::floor(buffer_size);
  uint64_t k = static_cast<uint64_t>(floor_b);
  double frac = buffer_size - floor_b;
  double tail = TailWeight(k);
  if (frac == 0.0) return tail;
  // Moving the boundary from k to k + frac sweeps a frac-share of bucket
  // k + 1 (the references at distance exactly k + 1) out of the tail.
  if (k + 1 < decayed_hist_.size()) {
    tail -= frac * decayed_hist_[k + 1];
  }
  return tail < 0.0 ? 0.0 : tail;
}

}  // namespace epfis
