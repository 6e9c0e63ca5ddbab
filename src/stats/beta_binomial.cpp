#include "stats/beta_binomial.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/special.hpp"

namespace hmdiv::stats {

namespace {

void check(std::span<const CountObservation> observations) {
  if (observations.empty()) {
    throw std::invalid_argument("beta_binomial: no observations");
  }
  bool any = false;
  for (const auto& o : observations) {
    if (o.failures > o.trials) {
      throw std::invalid_argument("beta_binomial: failures > trials");
    }
    any = any || o.trials > 0;
  }
  if (!any) throw std::invalid_argument("beta_binomial: all trials zero");
}

}  // namespace

double beta_binomial_log_likelihood(
    std::span<const CountObservation> observations, double alpha,
    double beta) {
  if (alpha <= 0.0 || beta <= 0.0) {
    throw std::invalid_argument("beta_binomial_log_likelihood: alpha,beta <= 0");
  }
  check(observations);
  // The normalising term depends only on (alpha, beta): hoist it out of
  // the loop, and take the three factorial terms from the cached
  // log_factorial table — 3 log_gamma calls per observation instead of 9.
  const double log_beta_norm =
      log_gamma(alpha + beta) - log_gamma(alpha) - log_gamma(beta);
  double ll = 0.0;
  for (const auto& o : observations) {
    if (o.trials == 0) continue;
    const double k = static_cast<double>(o.failures);
    const double n = static_cast<double>(o.trials);
    ll += log_factorial(o.trials) - log_factorial(o.failures) -
          log_factorial(o.trials - o.failures) + log_gamma(k + alpha) +
          log_gamma(n - k + beta) - log_gamma(n + alpha + beta) +
          log_beta_norm;
  }
  return ll;
}

BetaBinomialFit fit_beta_binomial_moments(
    std::span<const CountObservation> observations) {
  check(observations);
  // Weighted (by trials) mean and variance of the per-group proportions.
  double total_trials = 0.0;
  double weighted_sum = 0.0;
  std::size_t groups = 0;
  for (const auto& o : observations) {
    if (o.trials == 0) continue;
    total_trials += static_cast<double>(o.trials);
    weighted_sum += static_cast<double>(o.failures);
    ++groups;
  }
  const double mean_p = weighted_sum / total_trials;
  double between = 0.0;
  for (const auto& o : observations) {
    if (o.trials == 0) continue;
    const double p = static_cast<double>(o.failures) /
                     static_cast<double>(o.trials);
    between += static_cast<double>(o.trials) * (p - mean_p) * (p - mean_p);
  }
  between /= total_trials;

  const double clamped_mean = std::clamp(mean_p, 1e-9, 1.0 - 1e-9);
  const double binomial_var =
      clamped_mean * (1.0 - clamped_mean) *
      static_cast<double>(groups) / total_trials;
  double rho = 0.0;
  const double denom = clamped_mean * (1.0 - clamped_mean);
  if (between > binomial_var && denom > 0.0) {
    rho = std::clamp((between - binomial_var) / denom, 1e-9, 1.0 - 1e-6);
  } else {
    rho = 1e-6;  // Effectively binomial.
  }
  const double precision = 1.0 / rho - 1.0;  // alpha + beta
  BetaBinomialFit fit;
  fit.alpha = std::max(1e-6, clamped_mean * precision);
  fit.beta = std::max(1e-6, (1.0 - clamped_mean) * precision);
  return fit;
}

BetaBinomialFit fit_beta_binomial_mle(
    std::span<const CountObservation> observations) {
  BetaBinomialFit fit = fit_beta_binomial_moments(observations);
  // Coordinate search in log space, halving the step until convergence.
  double log_alpha = std::log(fit.alpha);
  double log_beta = std::log(fit.beta);
  double best = beta_binomial_log_likelihood(observations, fit.alpha, fit.beta);
  double step = 0.5;
  for (int iter = 0; iter < 200 && step > 1e-7; ++iter) {
    bool improved = false;
    for (const double da : {step, -step, 0.0}) {
      for (const double db : {step, -step, 0.0}) {
        if (da == 0.0 && db == 0.0) continue;
        const double a = std::exp(log_alpha + da);
        const double b = std::exp(log_beta + db);
        const double ll = beta_binomial_log_likelihood(observations, a, b);
        if (ll > best) {
          best = ll;
          log_alpha += da;
          log_beta += db;
          improved = true;
        }
      }
    }
    if (!improved) step *= 0.5;
  }
  fit.alpha = std::exp(log_alpha);
  fit.beta = std::exp(log_beta);
  return fit;
}

}  // namespace hmdiv::stats
