#ifndef EPFIS_BASELINES_SD_H_
#define EPFIS_BASELINES_SD_H_

#include "baselines/estimator.h"

namespace epfis {

/// Algorithm SD (§3.3). With J = full-scan fetches under a 1-page buffer:
///
///   CR = (N - J) / (N - T)          ("jumps" above the minimum)
///   U  = sigma * I * T (1 - (1 - 1/T)^{T/I})
///   V  = min(U, T) if T < B else U
///   F  = CR * T * sigma + (1 - CR) * V
///
/// The exponent T/I is as printed. Cardenas's formula would want records
/// per key value, N/I, so it is plausibly a typo; the paper's SD numbers
/// are reproduced as printed.
class SdEstimator final : public Estimator {
 public:
  explicit SdEstimator(const BaselineTraceStats& stats);

  std::string name() const override { return "SD"; }
  double Estimate(const EstimatorQuery& query) const override;

  double cluster_ratio() const { return cr_; }

 private:
  double t_;
  double n_records_;
  double i_;
  double cr_;
  double cardenas_per_key_;  // T (1 - (1 - 1/T)^exponent)
};

}  // namespace epfis

#endif  // EPFIS_BASELINES_SD_H_
