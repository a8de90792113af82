#include "baselines/sd.h"

#include <algorithm>
#include <cmath>

#include "util/formulas.h"

namespace epfis {

SdEstimator::SdEstimator(const BaselineTraceStats& stats)
    : t_(static_cast<double>(stats.table_pages)),
      n_records_(static_cast<double>(stats.table_records)),
      i_(std::max<double>(1.0, static_cast<double>(stats.distinct_keys))) {
  double j = static_cast<double>(stats.j1);
  cr_ = (n_records_ > t_) ? (n_records_ - j) / (n_records_ - t_) : 1.0;
  cr_ = Clamp(cr_, 0.0, 1.0);
  cardenas_per_key_ = CardenasPages(t_, t_ / i_);
}

double SdEstimator::Estimate(const EstimatorQuery& query) const {
  double u = query.sigma * i_ * cardenas_per_key_;
  double v = (t_ < static_cast<double>(query.buffer_pages))
                 ? std::min(u, t_)
                 : u;
  return cr_ * t_ * query.sigma + (1.0 - cr_) * v;
}

}  // namespace epfis
