#include "workload/gwl.h"

#include <algorithm>
#include <cmath>

#include "buffer/stack_distance_kernel.h"
#include "util/formulas.h"

namespace epfis {

const std::vector<GwlColumnSpec>& GwlColumns() {
  // Tables 2 and 3 of the paper. C is converted from percent to fraction.
  static const std::vector<GwlColumnSpec>* const kColumns =
      new std::vector<GwlColumnSpec>{
          {"CMAC.BRAN", 774, 20, 131, 0.433},
          {"CMAC.CEDT", 774, 20, 2829, 0.646},
          {"CAGD.CMAN", 1093, 104, 6155, 0.353},
          {"CAGD.POLN", 1093, 104, 110074, 0.996},
          {"INAP.APLD", 1945, 76, 729, 0.794},
          {"INAP.MALD", 1945, 76, 517, 0.643},
          {"INAP.UWID", 1945, 76, 60, 0.908},
          {"PLON.CLID", 4857, 123, 437654, 0.236},
      };
  return *kColumns;
}

Result<GwlColumnSpec> GwlColumnByName(const std::string& name) {
  for (const GwlColumnSpec& spec : GwlColumns()) {
    if (spec.name == name) return spec;
  }
  return Status::NotFound("unknown GWL column " + name);
}

double MeasureClusteringFactor(const Placement& placement) {
  uint64_t n = placement.page_of_record.size();
  uint64_t t = placement.num_pages;
  if (n <= t) return 1.0;
  uint64_t b_min = std::max<uint64_t>(
      static_cast<uint64_t>(std::ceil(0.01 * static_cast<double>(t))), 12);
  StackDistanceKernel kernel(n);
  kernel.AccessAll(placement.page_of_record.data(), n);
  uint64_t f_min = kernel.Fetches(b_min);
  return Clamp((static_cast<double>(n) - static_cast<double>(f_min)) /
                   (static_cast<double>(n) - static_cast<double>(t)),
               0.0, 1.0);
}

Result<GwlSynthesis> SynthesizeGwlColumn(const GwlColumnSpec& column,
                                         const GwlOptions& options) {
  if (options.scale <= 0.0) {
    return Status::InvalidArgument("GWL scale must be positive");
  }
  uint32_t pages = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::llround(column.pages * options.scale)));
  uint64_t records =
      static_cast<uint64_t>(pages) * column.records_per_page;
  uint64_t distinct = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(static_cast<double>(column.column_cardinality) *
                          options.scale)));
  distinct = std::min(distinct, records);

  SyntheticSpec spec;
  spec.name = column.name;
  spec.num_records = records;
  spec.num_distinct = distinct;
  spec.records_per_page = column.records_per_page;
  spec.theta = 0.0;
  spec.noise = options.noise;
  spec.seed = options.seed;

  // The measured C decreases (weakly) as K grows: bisect K until C matches
  // the paper's value. Clamp at the achievable extremes.
  double lo = 0.0, hi = 1.0;
  double best_k = 0.0, best_noise = spec.noise, best_c = -1.0;
  Placement best_placement;

  auto measure = [&](double k) -> Result<double> {
    spec.window_fraction = k;
    EPFIS_ASSIGN_OR_RETURN(Placement placement, GeneratePlacement(spec));
    double c = MeasureClusteringFactor(placement);
    if (best_c < 0.0 || std::fabs(c - column.target_clustering) <
                            std::fabs(best_c - column.target_clustering)) {
      best_c = c;
      best_k = k;
      best_noise = spec.noise;
      best_placement = std::move(placement);
    }
    return c;
  };

  EPFIS_ASSIGN_OR_RETURN(double c_lo, measure(lo));  // Most clustered.
  if (c_lo <= column.target_clustering) {
    // Even K=0 is not clustered enough: the noise floor caps C. Bisect the
    // noise down instead (highly clustered columns like CAGD.POLN, C=99.6%,
    // need less than the default 5% scatter).
    double noise_lo = 0.0, noise_hi = spec.noise;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      if (std::fabs(best_c - column.target_clustering) <=
          options.tolerance) {
        break;
      }
      double mid = 0.5 * (noise_lo + noise_hi);
      spec.noise = mid;
      EPFIS_ASSIGN_OR_RETURN(double c_mid, measure(0.0));
      if (c_mid > column.target_clustering) {
        noise_lo = mid;  // Too clustered: allow more noise.
      } else {
        noise_hi = mid;
      }
    }
  } else {
    EPFIS_ASSIGN_OR_RETURN(double c_hi, measure(hi));  // Least clustered.
    if (c_hi >= column.target_clustering) {
      // Even uniform placement is too clustered (tiny tables); done.
    } else {
      for (int iter = 0; iter < options.max_iterations; ++iter) {
        if (std::fabs(best_c - column.target_clustering) <=
            options.tolerance) {
          break;
        }
        double mid = 0.5 * (lo + hi);
        EPFIS_ASSIGN_OR_RETURN(double c_mid, measure(mid));
        if (c_mid > column.target_clustering) {
          lo = mid;  // Too clustered: widen the window.
        } else {
          hi = mid;
        }
      }
    }
  }

  spec.window_fraction = best_k;
  spec.noise = best_noise;
  GwlSynthesis synthesis;
  synthesis.spec = spec;
  synthesis.calibrated_k = best_k;
  synthesis.measured_c = best_c;
  EPFIS_ASSIGN_OR_RETURN(synthesis.dataset,
                         MaterializeDataset(spec, best_placement));
  return synthesis;
}

}  // namespace epfis
