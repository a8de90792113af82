#ifndef EPFIS_UTIL_FORMULAS_H_
#define EPFIS_UTIL_FORMULAS_H_

namespace epfis {

/// Classical page-access formulas from the estimation literature (used both
/// by Algorithm EPFIS's correction term and by the baseline estimators).

/// Cardenas (1975): expected number of distinct pages touched when k records
/// are drawn uniformly *with replacement* over T pages:
///   T * (1 - (1 - 1/T)^k).
/// Returns 0 when T <= 0 or k <= 0. Both arguments may be fractional (the
/// optimizer works with expected values).
double CardenasPages(double pages, double k);

/// Yao (1977): expected number of distinct pages touched when k records are
/// selected uniformly *without replacement* from n records stored n/T per
/// page on T pages. Returns min(T, k) degenerate bounds outside the model's
/// domain. Computed with the numerically stable product form.
double YaoPages(double n, double pages, double k);

/// Clamps v into [lo, hi].
double Clamp(double v, double lo, double hi);

}  // namespace epfis

#endif  // EPFIS_UTIL_FORMULAS_H_
