#ifndef EPFIS_BUFFER_SAMPLING_H_
#define EPFIS_BUFFER_SAMPLING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "buffer/stack_distance.h"
#include "storage/page.h"
#include "util/result.h"

namespace epfis {

/// Spatially-hashed trace sampling for the Mattson stack simulation
/// (SHARDS: Waldspurger et al., FAST 2015, applied here to the paper's
/// FPF curve instead of a miss-ratio curve).
///
/// A reference to page p is kept iff `SampleHash(p) < threshold`, where
/// SampleHash maps pages uniformly onto [0, kSampleModulus). Because the
/// decision depends only on the page — never on the position in the
/// trace — the sampled trace is the exact reference string of the sampled
/// *page subset*, so running the unmodified exact kernel over it yields
/// exact stack distances within that subset.
///
/// The filter hashes every reference anyway, so a page bitmap marks first
/// touches of all pages — sampled or not — at ~1 bit of memory per page
/// id and one bit-test per reference. That gives the true distinct-page
/// count P for free: the cold-miss side of the estimate is exact. Sampled
/// distances (measured within the K sampled pages) are then rescaled onto
/// the full distance axis by the *realized* page ratio (P - 1) / (K - 1),
/// not the nominal 1/R: the re-referenced page itself always survives the
/// filter, so a sampled distance d estimates 1 + (d - 1)(P - 1)/(K - 1),
/// and the maximum sampled distance K lands exactly on the true maximum
/// P. Only the finite-distance tail remains statistical — each sampled
/// re-reference carries Horvitz-Thompson weight 1/R.
///
/// The estimate error shrinks as the sampled-page count grows (SHARDS
/// accuracy scales with sampled *pages*, not with the rate), which is why
/// LRU-Fit can size the rate from a page target: R = K / T (DESIGN.md
/// §10.3).
struct SamplingOptions {
  /// Keep pages whose hash falls under rate * modulus. 1.0 disables the
  /// filter entirely (bit-identical to the exact kernel); must be in
  /// (0, 1].
  double rate = 1.0;

  bool enabled() const { return rate < 1.0; }

  /// InvalidArgument on rate outside (0, 1] (NaN included).
  Status Validate() const {
    if (!(rate > 0.0) || rate > 1.0) {
      return Status::InvalidArgument(
          "sampling: rate must be in (0, 1]");
    }
    return Status::Ok();
  }
};

/// Hash space of the sampling filter. 24 bits give rate granularity of
/// 6e-8 while keeping thresholds comfortably inside double precision.
inline constexpr uint64_t kSampleModulus = uint64_t{1} << 24;

/// Position of `page` in the sampling hash space, uniform on
/// [0, kSampleModulus). A splitmix-style finalizer: page ids are small
/// dense integers, so the input bits must be spread before the top bits
/// are taken.
inline uint64_t SampleHash(PageId page) {
  uint64_t h = static_cast<uint64_t>(page) + 0x9E3779B97F4A7C15ull;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h >> 40;  // Top 24 bits of the mixed word.
}

/// Threshold encoding `rate` (at least 1, so some pages always qualify;
/// rate 1.0 maps to the full modulus, i.e. no filtering).
inline uint64_t SampleThresholdForRate(double rate) {
  auto t = static_cast<uint64_t>(
      std::llround(rate * static_cast<double>(kSampleModulus)));
  if (t < 1) t = 1;
  if (t > kSampleModulus) t = kSampleModulus;
  return t;
}

/// First-touch tracker for exact cold-miss counting under fixed-rate
/// sampling: one bit per page id, grown on demand. Page-trace ids are
/// dense table page numbers, so the bitmap costs max_page_id / 8 bytes —
/// kilobytes for the table sizes this models, and at most 2 MiB under the
/// kPageIdLimit that every streamed feed enforces — and a touch is one
/// test-and-set, cheap enough for the per-reference skip path.
class PageSeenSet {
 public:
  /// Marks `page` seen; returns whether it already was.
  bool TestAndSet(PageId page) {
    size_t word = static_cast<size_t>(page) >> 6;
    if (word >= words_.size()) {
      words_.resize(std::max(word + 1, words_.size() * 2), 0);
    }
    uint64_t mask = uint64_t{1} << (page & 63);
    bool seen = (words_[word] & mask) != 0;
    words_[word] |= mask;
    distinct_ += static_cast<uint64_t>(!seen);
    return seen;
  }

  /// Exact count of distinct pages seen so far — the paper's A.
  uint64_t distinct() const { return distinct_; }

 private:
  std::vector<uint64_t> words_;
  uint64_t distinct_ = 0;
};

/// Distance-axis scale factor for a finished fixed-rate run: the realized
/// page-sampling ratio (P - 1) / (K - 1), where P is the exact distinct
/// count of the full trace and K the sampled distinct count. Using the
/// realized ratio instead of the nominal 1/R pins the top of the rescaled
/// curve to the true distinct count (sampled distance K maps exactly to
/// P), removing the horizontal stretch a lucky or unlucky page draw would
/// otherwise impose. Falls back to `inv_rate` when the sampled set is
/// degenerate.
inline double SampledDistanceScale(uint64_t exact_distinct,
                                   uint64_t sampled_pages, double inv_rate) {
  if (exact_distinct == 0 || sampled_pages < 2) return inv_rate;
  return static_cast<double>(exact_distinct - 1) /
         static_cast<double>(sampled_pages - 1);
}

/// Maps a sampled-domain histogram onto the full-trace distance axis:
/// every reference in bucket d lands in bucket 1 + round((d - 1) *
/// factor) — the page itself always survives the filter, so only the
/// other d - 1 stack entries were thinned. Counts stay raw sampled counts
/// (SampledStackDistances weights them at query time). With factor 1 this
/// is the identity — callers skip it then, so the exact path never copies.
inline StackDistanceHistogram RescaleSampledDistances(
    const StackDistanceHistogram& raw, double factor) {
  StackDistanceHistogram out;
  out.AddColdMisses(raw.cold_misses());
  const std::vector<uint64_t>& hist = raw.hist();
  for (uint64_t d = 1; d < hist.size(); ++d) {
    if (hist[d] == 0) continue;
    uint64_t scaled =
        1 + static_cast<uint64_t>(
                std::llround(static_cast<double>(d - 1) * factor));
    out.AddDistances(scaled, hist[d]);
  }
  return out;
}

/// What a sampled stack-distance pass actually did — recorded alongside
/// the histogram so consumers (LRU-Fit, the catalog, the benchmarks) can
/// see the provenance of the estimates.
struct SamplingSummary {
  double effective_rate = 1.0;  ///< Threshold / kSampleModulus.
  uint64_t total_refs = 0;      ///< Every reference seen, sampled or not.
  uint64_t sampled_refs = 0;    ///< References that passed the filter.
  uint64_t exact_distinct = 0;  ///< Exact distinct pages of the FULL trace
                                ///< (sampled runs track first touches of
                                ///< every page in a bitmap); 0 when the
                                ///< filter is off.

  /// True when the pass actually dropped references; a rate-1.0 run is
  /// exact.
  bool active() const { return sampled_refs != total_refs; }
};

/// Result of a (possibly sampled) stack-distance computation: the
/// histogram plus the sampling provenance, with accessors that map
/// sampled measurements back to full-trace estimates.
///
/// The histogram's *distances* are already in the full-trace domain
/// (rescaled by the realized page ratio); its *counts* are raw
/// sampled-reference counts, weighted here at query time. When the pass
/// was exact every accessor is a pass-through and the histogram is
/// bit-identical to the exact kernel's.
struct SampledStackDistances {
  StackDistanceHistogram histogram;
  SamplingSummary sampling;

  /// Estimated full-trace page fetches for a `buffer_size`-slot LRU
  /// buffer. Buffer size 0 means no buffer — every reference misses —
  /// and returns the exact total reference count (it was counted, not
  /// sampled).
  uint64_t Fetches(uint64_t buffer_size) const {
    if (!sampling.active()) return histogram.Fetches(buffer_size);
    if (buffer_size == 0) return sampling.total_refs;
    // No reference survived the filter (the pipeline rejects this with
    // FailedPrecondition; direct kernel users can still ask): no sample
    // information, so the conservative answer is "every access misses".
    if (sampling.sampled_refs == 0) return sampling.total_refs;
    // The cold term is exact — only the finite-distance tail is
    // statistical, each sampled re-reference standing for 1/R
    // re-references of the full trace (Horvitz-Thompson weight).
    double tail = static_cast<double>(histogram.Fetches(buffer_size) -
                                      histogram.cold_misses());
    double est = static_cast<double>(sampling.exact_distinct) +
                 tail / sampling.effective_rate;
    // An estimate cannot exceed the known total reference count.
    return static_cast<uint64_t>(std::llround(
        std::min(est, static_cast<double>(sampling.total_refs))));
  }

  /// Exact total reference count (the filter counts what it drops).
  uint64_t accesses() const { return sampling.total_refs; }

  /// Distinct pages: exact either way (a sampled run counts the first
  /// touches of every page).
  uint64_t distinct_pages() const {
    if (!sampling.active()) return histogram.distinct_pages();
    return sampling.exact_distinct;
  }
};

}  // namespace epfis

#endif  // EPFIS_BUFFER_SAMPLING_H_
