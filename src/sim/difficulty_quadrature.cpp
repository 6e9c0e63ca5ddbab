#include "sim/difficulty_quadrature.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace hmdiv::sim::detail {

namespace {

constexpr double kHalfWidth = 10.0;  ///< each axis covers ±10 sigma
constexpr std::size_t kMinNodes = 64;
constexpr double kNodesPerSlopeSigma = 56.0;

/// A one-dimensional rule: nodes z and weights w.
struct Rule {
  std::vector<double> z;
  std::vector<double> w;
};

/// The n-node Gauss-Legendre rule on [-1, 1], by Newton's method on the
/// three-term Legendre recurrence.
Rule gauss_legendre(std::size_t n) {
  Rule rule{std::vector<double>(n), std::vector<double>(n)};
  const double nd = static_cast<double>(n);
  for (std::size_t i = 0; i < (n + 1) / 2; ++i) {
    double z = std::cos(std::numbers::pi * (static_cast<double>(i) + 0.75) /
                        (nd + 0.5));
    double derivative = 0.0;
    for (int iteration = 0; iteration < 100; ++iteration) {
      double p = 1.0;           // P_j(z)
      double p_previous = 0.0;  // P_{j-1}(z)
      for (std::size_t j = 1; j <= n; ++j) {
        const double jd = static_cast<double>(j);
        const double p_next =
            ((2.0 * jd - 1.0) * z * p - (jd - 1.0) * p_previous) / jd;
        p_previous = p;
        p = p_next;
      }
      derivative = nd * (z * p - p_previous) / (z * z - 1.0);
      const double step = p / derivative;
      z -= step;
      if (std::fabs(step) <= 1e-15) break;
    }
    rule.z[i] = -z;
    rule.z[n - 1 - i] = z;
    rule.w[i] = rule.w[n - 1 - i] =
        2.0 / ((1.0 - z * z) * derivative * derivative);
  }
  return rule;
}

double normal_density(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

/// The n-node Gauss-Legendre rule on each piece of [-10, 10] between the
/// cut points, weighted by the normal density and normalised to sum 1:
/// sum_i w_i f(z_i) ≈ E[f(Z)] for Z ~ N(0, 1).
Rule standard_normal_rule(std::size_t n, std::vector<double> cuts) {
  const Rule unit = gauss_legendre(n);
  cuts.push_back(-kHalfWidth);
  cuts.push_back(kHalfWidth);
  std::sort(cuts.begin(), cuts.end());
  Rule rule;
  double total = 0.0;
  for (std::size_t piece = 0; piece + 1 < cuts.size(); ++piece) {
    const double lo = cuts[piece];
    const double hi = cuts[piece + 1];
    if (!(hi > lo)) continue;
    const double mid = 0.5 * (lo + hi);
    const double half = 0.5 * (hi - lo);
    for (std::size_t i = 0; i < n; ++i) {
      const double z = mid + half * unit.z[i];
      const double weight = half * unit.w[i] * normal_density(z);
      rule.z.push_back(z);
      rule.w.push_back(weight);
      total += weight;
    }
  }
  for (double& weight : rule.w) weight /= total;
  return rule;
}

}  // namespace

std::size_t difficulty_nodes_per_axis(const CaseClassSpec& spec,
                                      double steepest_slope) {
  const double sigma =
      std::max(spec.human_difficulty_sigma, spec.machine_difficulty_sigma);
  if (!std::isfinite(sigma)) {
    throw std::invalid_argument(
        "expect_over_difficulties: difficulty sigma must be finite");
  }
  if (!(steepest_slope >= 0.0) || !std::isfinite(steepest_slope)) {
    throw std::invalid_argument(
        "expect_over_difficulties: slope must be finite and >= 0");
  }
  const double nodes = std::ceil(kNodesPerSlopeSigma * steepest_slope * sigma);
  return std::max(kMinNodes, static_cast<std::size_t>(nodes));
}

void for_each_difficulty_node(
    const CaseClassSpec& spec, std::span<const double> human_kinks,
    std::size_t nodes_per_axis,
    exec::FunctionRef<void(double, double, double)> visit) {
  const double sigma_h = spec.human_difficulty_sigma;
  const double sigma_m = spec.machine_difficulty_sigma;
  const double rho = spec.difficulty_correlation;
  // m = mu_m + along·z1 + across·z2. With sigma_h = 0 the human axis is a
  // point, and M's own normal spread moves to the inner axis.
  const double along = sigma_h > 0.0 ? sigma_m * rho : 0.0;
  const double across =
      sigma_h > 0.0 ? sigma_m * std::sqrt(1.0 - rho * rho) : sigma_m;

  const Rule point{{0.0}, {1.0}};
  std::vector<double> cuts;
  if (sigma_h > 0.0) {
    for (const double kink : human_kinks) {
      const double z = (kink - spec.human_difficulty_mean) / sigma_h;
      if (z > -kHalfWidth && z < kHalfWidth) cuts.push_back(z);
    }
  }
  const Rule outer = sigma_h > 0.0
                         ? standard_normal_rule(nodes_per_axis, std::move(cuts))
                         : point;
  const Rule inner =
      across > 0.0 ? standard_normal_rule(nodes_per_axis, {}) : point;

  for (std::size_t i = 0; i < outer.z.size(); ++i) {
    const double human = spec.human_difficulty_mean + sigma_h * outer.z[i];
    const double machine_centre =
        spec.machine_difficulty_mean + along * outer.z[i];
    for (std::size_t j = 0; j < inner.z.size(); ++j) {
      visit(human, machine_centre + across * inner.z[j],
            outer.w[i] * inner.w[j]);
    }
  }
}

}  // namespace hmdiv::sim::detail
