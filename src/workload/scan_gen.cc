#include "workload/scan_gen.h"

#include <algorithm>
#include <cmath>

namespace epfis {

ScanGenerator::ScanGenerator(const Dataset* dataset, uint64_t seed)
    : dataset_(dataset), rng_(seed) {}

ScanRange ScanGenerator::FromFraction(double r) {
  const auto& cum = dataset_->cum_counts();
  const uint64_t n = dataset_->num_records();
  const int64_t num_keys = static_cast<int64_t>(cum.size());

  r = std::clamp(r, 1.0 / static_cast<double>(n), 1.0);
  uint64_t target = static_cast<uint64_t>(
      std::ceil(r * static_cast<double>(n)));
  target = std::clamp<uint64_t>(target, 1, n);

  // cum_before(k) = records with key < k (keys are 1-based).
  auto cum_before = [&](int64_t k) -> uint64_t {
    return (k >= 2) ? cum[static_cast<size_t>(k) - 2] : 0;
  };

  // Largest k1 with at least `target` records having keys >= k1:
  // n - cum_before(k1) >= target  <=>  cum_before(k1) <= n - target.
  uint64_t budget = n - target;
  int64_t lo = 1, hi = num_keys, k1_max = 1;
  while (lo <= hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (cum_before(mid) <= budget) {
      k1_max = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  int64_t k1 = 1 + static_cast<int64_t>(
                       rng_.NextBounded(static_cast<uint64_t>(k1_max)));

  // Smallest k2 >= k1 with cum[k2] - cum_before(k1) >= target.
  uint64_t base = cum_before(k1);
  lo = k1;
  hi = num_keys;
  int64_t k2 = num_keys;
  while (lo <= hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (cum[static_cast<size_t>(mid) - 1] - base >= target) {
      k2 = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }

  ScanRange scan;
  scan.lo_key = k1;
  scan.hi_key = k2;
  scan.num_records = cum[static_cast<size_t>(k2) - 1] - base;
  scan.sigma = static_cast<double>(scan.num_records) /
               static_cast<double>(n);
  return scan;
}

ScanRange ScanGenerator::Small() {
  // r in (0, 0.2); avoid exactly 0 which would degenerate.
  double r = rng_.NextDouble() * 0.2;
  return FromFraction(r);
}

ScanRange ScanGenerator::Large() {
  double r = 0.2 + rng_.NextDouble() * 0.8;
  return FromFraction(r);
}

ScanRange ScanGenerator::Full() { return FromFraction(1.0); }

ScanRange ScanGenerator::Next(ScanMix mix) {
  switch (mix) {
    case ScanMix::kMixed:
      return rng_.NextBernoulli(0.5) ? Small() : Large();
    case ScanMix::kSmallOnly:
      return Small();
    case ScanMix::kLargeOnly:
      return Large();
    case ScanMix::kFullOnly:
      return Full();
  }
  return Full();
}

std::string ScanMixName(ScanMix mix) {
  switch (mix) {
    case ScanMix::kMixed:
      return "mixed";
    case ScanMix::kSmallOnly:
      return "small-only";
    case ScanMix::kLargeOnly:
      return "large-only";
    case ScanMix::kFullOnly:
      return "full-only";
  }
  return "unknown";
}

}  // namespace epfis
