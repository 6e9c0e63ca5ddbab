#include "stats/distributions.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/rng.hpp"
#include "stats/special.hpp"

namespace hmdiv::stats {

double binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("binomial_pmf: p outside [0,1]");
  }
  if (k > n) return 0.0;
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = log_binomial_coefficient(n, k) +
                         static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double binomial_cdf(std::uint64_t n, double p, std::uint64_t k) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("binomial_cdf: p outside [0,1]");
  }
  if (k >= n) return 1.0;
  // P(X <= k) = I_{1-p}(n-k, k+1).
  return regularized_incomplete_beta(static_cast<double>(n - k),
                                     static_cast<double>(k) + 1.0, 1.0 - p);
}

double beta_pdf(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) throw std::invalid_argument("beta_pdf: a,b <= 0");
  if (x < 0.0 || x > 1.0) return 0.0;
  if (x == 0.0) return a < 1.0 ? HUGE_VAL : (a == 1.0 ? b : 0.0);
  if (x == 1.0) return b < 1.0 ? HUGE_VAL : (b == 1.0 ? a : 0.0);
  const double log_pdf = (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) +
                         log_gamma(a + b) - log_gamma(a) - log_gamma(b);
  return std::exp(log_pdf);
}

double beta_cdf(double a, double b, double x) {
  return regularized_incomplete_beta(a, b, x);
}

namespace {

/// Shared validation: finite, non-negative, sum within 1e-9 of 1. Returns
/// the probabilities untouched; the public constructor renormalises on top.
std::vector<double> checked_probabilities(std::vector<double> probabilities) {
  if (probabilities.empty()) {
    throw std::invalid_argument("DiscreteDistribution: empty");
  }
  double total = 0.0;
  for (const double p : probabilities) {
    if (!(p >= 0.0) || !std::isfinite(p)) {
      throw std::invalid_argument(
          "DiscreteDistribution: probabilities must be finite and >= 0");
    }
    total += p;
  }
  if (std::fabs(total - 1.0) > 1e-9) {
    throw std::invalid_argument(
        "DiscreteDistribution: probabilities must sum to 1 (use from_weights "
        "to normalise)");
  }
  return probabilities;
}

std::vector<double> validated_probabilities(std::vector<double> probabilities) {
  probabilities = checked_probabilities(std::move(probabilities));
  double total = 0.0;
  for (const double p : probabilities) total += p;
  // Renormalise exactly so expectation() is a true weighted average.
  for (double& p : probabilities) p /= total;
  return probabilities;
}

}  // namespace

DiscreteDistribution::DiscreteDistribution(std::vector<double> probabilities)
    : probabilities_(validated_probabilities(std::move(probabilities))),
      alias_(probabilities_) {}

DiscreteDistribution::DiscreteDistribution(NormalisedTag,
                                           std::vector<double> probabilities)
    : probabilities_(checked_probabilities(std::move(probabilities))),
      alias_(probabilities_) {}

DiscreteDistribution DiscreteDistribution::from_normalised(
    std::vector<double> probabilities) {
  return DiscreteDistribution(NormalisedTag{}, std::move(probabilities));
}

DiscreteDistribution DiscreteDistribution::from_weights(
    std::vector<double> weights) {
  if (weights.empty()) {
    throw std::invalid_argument("DiscreteDistribution::from_weights: empty");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "DiscreteDistribution::from_weights: weights must be finite, >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument(
        "DiscreteDistribution::from_weights: all weights zero");
  }
  for (double& w : weights) w /= total;
  return DiscreteDistribution(std::move(weights));
}

std::size_t DiscreteDistribution::sample(Rng& rng) const {
  return alias_.sample(rng);
}

double DiscreteDistribution::expectation(std::span<const double> values) const {
  if (values.size() != probabilities_.size()) {
    throw std::invalid_argument(
        "DiscreteDistribution::expectation: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += probabilities_[i] * values[i];
  }
  return sum;
}

}  // namespace hmdiv::stats
