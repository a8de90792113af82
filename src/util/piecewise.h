#ifndef EPFIS_UTIL_PIECEWISE_H_
#define EPFIS_UTIL_PIECEWISE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/result.h"

namespace epfis {

/// One knot of a piecewise-linear curve.
struct Knot {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Knot& a, const Knot& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// A continuous piecewise-linear function defined by its knots, with linear
/// extrapolation beyond both ends (the paper extrapolates when the buffer
/// size falls outside the modeled range). This is the catalog representation
/// of an approximated FPF curve: only the knot coordinates need storing.
class PiecewiseLinear {
 public:
  /// Builds a curve from knots that pass CheckKnots.
  static Result<PiecewiseLinear> FromKnots(std::vector<Knot> knots);

  /// The rule a knot sequence must meet to be a curve: >= 2 knots with
  /// strictly increasing x. InvalidArgument, naming the break, otherwise.
  static Status CheckKnots(std::span<const Knot> knots);

  /// Evaluates the function at x, interpolating within the knot range and
  /// extrapolating with the first/last segment's slope outside it.
  double Eval(double x) const;

  const std::vector<Knot>& knots() const { return knots_; }
  size_t num_segments() const { return knots_.size() - 1; }

  double min_x() const { return knots_.front().x; }
  double max_x() const { return knots_.back().x; }

 private:
  explicit PiecewiseLinear(std::vector<Knot> knots)
      : knots_(std::move(knots)) {}

  std::vector<Knot> knots_;
};

/// Fits a piecewise-linear curve with at most `max_segments` segments to the
/// sample points, by dynamic programming over knot positions restricted to
/// the sample points themselves (the fitted curve passes through the chosen
/// samples and always through both endpoints). Minimizes the total squared
/// vertical residual over all samples; exact for this knot family.
///
/// Requires: points sorted by strictly increasing x, size >= 2,
/// max_segments >= 1. If there are fewer than max_segments+1 points, all
/// points become knots.
Result<PiecewiseLinear> FitPiecewiseLinear(const std::vector<Knot>& points,
                                           int max_segments);

/// Baseline fitter used in tests and ablations: places knots at (nearly)
/// uniformly spaced sample indices instead of optimizing their placement.
Result<PiecewiseLinear> FitPiecewiseUniform(const std::vector<Knot>& points,
                                            int max_segments);

/// Total squared vertical residual of `curve` against `points`.
double SumSquaredResidual(const PiecewiseLinear& curve,
                          const std::vector<Knot>& points);

/// Maximum absolute vertical residual of `curve` against `points`.
double MaxAbsResidual(const PiecewiseLinear& curve,
                      const std::vector<Knot>& points);

}  // namespace epfis

#endif  // EPFIS_UTIL_PIECEWISE_H_
