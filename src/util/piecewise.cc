#include "util/piecewise.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace epfis {
namespace {

Status ValidatePoints(const std::vector<Knot>& points, int max_segments) {
  if (points.size() < 2) {
    return Status::InvalidArgument("piecewise fit needs at least 2 points");
  }
  if (max_segments < 1) {
    return Status::InvalidArgument("max_segments must be >= 1");
  }
  for (size_t i = 1; i < points.size(); ++i) {
    if (!(points[i - 1].x < points[i].x)) {
      return Status::InvalidArgument(
          "piecewise fit points must have strictly increasing x");
    }
  }
  return Status::Ok();
}

// Squared residual of samples strictly between indices i and j against the
// chord from points[i] to points[j].
double ChordCost(const std::vector<Knot>& pts, size_t i, size_t j) {
  double x0 = pts[i].x, y0 = pts[i].y;
  double slope = (pts[j].y - y0) / (pts[j].x - x0);
  double cost = 0.0;
  for (size_t m = i + 1; m < j; ++m) {
    double pred = y0 + slope * (pts[m].x - x0);
    double r = pts[m].y - pred;
    cost += r * r;
  }
  return cost;
}

// DP over knot placements: dp[s][j] is the least total squared residual
// of an s-segment curve from points[0] to points[j].
Result<PiecewiseLinear> FitWithDp(const std::vector<Knot>& points,
                                  int max_segments) {
  const size_t m = points.size();
  const size_t k = std::min<size_t>(static_cast<size_t>(max_segments), m - 1);

  std::vector<std::vector<double>> cost(m, std::vector<double>(m, 0.0));
  for (size_t i = 0; i + 1 < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      cost[i][j] = ChordCost(points, i, j);
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(k + 1, std::vector<double>(m, kInf));
  std::vector<std::vector<size_t>> parent(k + 1, std::vector<size_t>(m, 0));
  dp[0][0] = 0.0;
  for (size_t s = 1; s <= k; ++s) {
    for (size_t j = s; j < m; ++j) {
      for (size_t i = s - 1; i < j; ++i) {
        if (dp[s - 1][i] == kInf) continue;
        double c = dp[s - 1][i] + cost[i][j];
        if (c < dp[s][j]) {
          dp[s][j] = c;
          parent[s][j] = i;
        }
      }
    }
  }

  size_t best_s = k;
  double best_cost = dp[k][m - 1];
  for (size_t s = 1; s < k; ++s) {
    if (dp[s][m - 1] <= best_cost) {
      best_cost = dp[s][m - 1];
      best_s = s;
      break;
    }
  }

  std::vector<size_t> idx;
  size_t j = m - 1;
  for (size_t s = best_s; s > 0; --s) {
    idx.push_back(j);
    j = parent[s][j];
  }
  idx.push_back(0);
  std::reverse(idx.begin(), idx.end());

  std::vector<Knot> knots;
  knots.reserve(idx.size());
  for (size_t id : idx) knots.push_back(points[id]);
  return PiecewiseLinear::FromKnots(std::move(knots));
}

}  // namespace

Status PiecewiseLinear::CheckKnots(std::span<const Knot> knots) {
  if (knots.size() < 2) {
    return Status::InvalidArgument("PiecewiseLinear needs at least 2 knots");
  }
  for (size_t i = 1; i < knots.size(); ++i) {
    if (!(knots[i - 1].x < knots[i].x)) {
      return Status::InvalidArgument(
          "PiecewiseLinear knots must have strictly increasing x");
    }
  }
  return Status::Ok();
}

Result<PiecewiseLinear> PiecewiseLinear::FromKnots(std::vector<Knot> knots) {
  EPFIS_RETURN_IF_ERROR(CheckKnots(knots));
  return PiecewiseLinear(std::move(knots));
}

double PiecewiseLinear::Eval(double x) const {
  // Locate the segment; clamp to the end segments for extrapolation.
  size_t hi = 1;
  if (x >= knots_.back().x) {
    hi = knots_.size() - 1;
  } else if (x > knots_.front().x) {
    hi = static_cast<size_t>(
        std::upper_bound(knots_.begin(), knots_.end(), x,
                         [](double v, const Knot& k) { return v < k.x; }) -
        knots_.begin());
    hi = std::min(hi, knots_.size() - 1);
  }
  const Knot& a = knots_[hi - 1];
  const Knot& b = knots_[hi];
  double slope = (b.y - a.y) / (b.x - a.x);
  return a.y + slope * (x - a.x);
}

Result<PiecewiseLinear> FitPiecewiseLinear(const std::vector<Knot>& points,
                                           int max_segments) {
  EPFIS_RETURN_IF_ERROR(ValidatePoints(points, max_segments));
  return FitWithDp(points, max_segments);
}

Result<PiecewiseLinear> FitPiecewiseUniform(const std::vector<Knot>& points,
                                            int max_segments) {
  EPFIS_RETURN_IF_ERROR(ValidatePoints(points, max_segments));
  const size_t m = points.size();
  const size_t k = std::min<size_t>(static_cast<size_t>(max_segments), m - 1);
  std::vector<Knot> knots;
  knots.reserve(k + 1);
  for (size_t s = 0; s <= k; ++s) {
    size_t id = (s * (m - 1)) / k;
    if (!knots.empty() && knots.back().x >= points[id].x) continue;
    knots.push_back(points[id]);
  }
  return PiecewiseLinear::FromKnots(std::move(knots));
}

double SumSquaredResidual(const PiecewiseLinear& curve,
                          const std::vector<Knot>& points) {
  double sse = 0.0;
  for (const Knot& p : points) {
    double r = curve.Eval(p.x) - p.y;
    sse += r * r;
  }
  return sse;
}

double MaxAbsResidual(const PiecewiseLinear& curve,
                      const std::vector<Knot>& points) {
  double worst = 0.0;
  for (const Knot& p : points) {
    worst = std::max(worst, std::fabs(curve.Eval(p.x) - p.y));
  }
  return worst;
}

}  // namespace epfis
