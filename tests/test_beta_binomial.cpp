// Unit tests for stats/beta_binomial.hpp — modelling reader heterogeneity.
#include "stats/beta_binomial.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "exec/parallel.hpp"
#include "stats/rng.hpp"

namespace hmdiv::stats {
namespace {

std::vector<CountObservation> simulate(double alpha, double beta, int groups,
                                       std::uint64_t trials_per_group,
                                       Rng& rng) {
  std::vector<CountObservation> out;
  out.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    const double p = rng.beta(alpha, beta);
    CountObservation o;
    o.trials = trials_per_group;
    o.failures = rng.binomial(trials_per_group, p);
    out.push_back(o);
  }
  return out;
}

TEST(BetaBinomial, FitRecoversMeanAndOverdispersion) {
  Rng rng(555);
  // alpha=4, beta=16: mean 0.2, rho = 1/21 ~ 0.048.
  const auto data = simulate(4.0, 16.0, 200, 150, rng);
  const auto moments = fit_beta_binomial_moments(data);
  EXPECT_NEAR(moments.mean(), 0.2, 0.03);
  EXPECT_NEAR(moments.rho(), 1.0 / 21.0, 0.03);
  const auto mle = fit_beta_binomial_mle(data);
  EXPECT_NEAR(mle.mean(), 0.2, 0.03);
  EXPECT_NEAR(mle.rho(), 1.0 / 21.0, 0.03);
}

TEST(BetaBinomial, MleDoesNotDegradeLikelihood) {
  Rng rng(556);
  const auto data = simulate(2.0, 8.0, 100, 80, rng);
  const auto moments = fit_beta_binomial_moments(data);
  const auto mle = fit_beta_binomial_mle(data);
  EXPECT_GE(beta_binomial_log_likelihood(data, mle.alpha, mle.beta),
            beta_binomial_log_likelihood(data, moments.alpha, moments.beta) -
                1e-9);
}

TEST(BetaBinomial, HomogeneousDataYieldsTinyRho) {
  Rng rng(557);
  // Plain binomial data: all groups share p = 0.3.
  std::vector<CountObservation> data;
  for (int g = 0; g < 150; ++g) {
    CountObservation o;
    o.trials = 200;
    o.failures = rng.binomial(200, 0.3);
    data.push_back(o);
  }
  const auto fit = fit_beta_binomial_moments(data);
  EXPECT_LT(fit.rho(), 0.02);
  EXPECT_NEAR(fit.mean(), 0.3, 0.02);
}

TEST(BetaBinomial, LikelihoodPrefersTrueParameters) {
  Rng rng(558);
  const auto data = simulate(3.0, 12.0, 300, 100, rng);
  const double at_truth = beta_binomial_log_likelihood(data, 3.0, 12.0);
  const double far_off = beta_binomial_log_likelihood(data, 50.0, 10.0);
  EXPECT_GT(at_truth, far_off);
}

TEST(BetaBinomial, PoolFitsMatchSerialFitsBitwise) {
  // reader_variability fits its panels on pool threads. Each fit must be
  // the serial fit's exact doubles, and the fits must not share state:
  // std::lgamma's global signgam did, which ThreadSanitizer reports here.
  Rng rng(559);
  std::vector<std::vector<CountObservation>> sets;
  for (int s = 0; s < 8; ++s) {
    sets.push_back(simulate(2.0 + s, 10.0, 12, 3000, rng));
  }
  std::vector<BetaBinomialFit> serial;
  for (const auto& set : sets) serial.push_back(fit_beta_binomial_mle(set));
  std::vector<BetaBinomialFit> pooled(sets.size());
  exec::parallel_for(
      sets.size(), 1,
      [&](std::size_t i) { pooled[i] = fit_beta_binomial_mle(sets[i]); },
      exec::Config{4});
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(std::memcmp(&pooled[i].alpha, &serial[i].alpha, sizeof(double)),
              0)
        << i;
    EXPECT_EQ(std::memcmp(&pooled[i].beta, &serial[i].beta, sizeof(double)),
              0)
        << i;
  }
}

TEST(BetaBinomial, RejectsBadInput) {
  const std::vector<CountObservation> empty;
  EXPECT_THROW(fit_beta_binomial_moments(empty), std::invalid_argument);
  std::vector<CountObservation> inconsistent{{5, 3}};  // failures > trials
  EXPECT_THROW(fit_beta_binomial_moments(inconsistent), std::invalid_argument);
  std::vector<CountObservation> no_trials{{0, 0}};
  EXPECT_THROW(fit_beta_binomial_moments(no_trials), std::invalid_argument);
  std::vector<CountObservation> ok{{2, 10}};
  EXPECT_THROW(beta_binomial_log_likelihood(ok, 0.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::stats
