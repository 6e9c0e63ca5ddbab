// Unit tests for stats/bootstrap.hpp.
#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace hmdiv::stats {
namespace {

std::vector<double> normal_sample(double mu, double sigma, int n, Rng& rng) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(rng.normal(mu, sigma));
  return out;
}

TEST(Bootstrap, MeanIntervalCoversTruth) {
  Rng rng(77);
  const auto sample = normal_sample(3.0, 1.0, 400, rng);
  const auto result = bootstrap_percentile(
      sample, [](std::span<const double> s) { return mean(s); }, rng, 1500);
  EXPECT_NEAR(result.estimate, 3.0, 0.2);
  EXPECT_LT(result.lower, 3.0);
  EXPECT_GT(result.upper, 3.0);
}

TEST(Bootstrap, StandardErrorMatchesTheory) {
  Rng rng(78);
  const int n = 500;
  const auto sample = normal_sample(0.0, 2.0, n, rng);
  const auto result = bootstrap_percentile(
      sample, [](std::span<const double> s) { return mean(s); }, rng, 3000);
  // SE(mean) = sigma / sqrt(n) ~ 0.089.
  EXPECT_NEAR(result.standard_error, 2.0 / std::sqrt(n), 0.02);
}

TEST(Bootstrap, DegenerateSampleGivesZeroWidth) {
  Rng rng(79);
  const std::vector<double> sample(50, 1.5);
  const auto result = bootstrap_percentile(
      sample, [](std::span<const double> s) { return mean(s); }, rng, 200);
  EXPECT_EQ(result.estimate, 1.5);
  EXPECT_EQ(result.lower, 1.5);
  EXPECT_EQ(result.upper, 1.5);
  EXPECT_EQ(result.standard_error, 0.0);
}

TEST(Bootstrap, RejectsBadArguments) {
  Rng rng(80);
  const std::vector<double> empty;
  const std::vector<double> ok{1.0, 2.0};
  const auto stat = [](std::span<const double> s) { return mean(s); };
  EXPECT_THROW(bootstrap_percentile(empty, stat, rng), std::invalid_argument);
  EXPECT_THROW(bootstrap_percentile(ok, stat, rng, 0), std::invalid_argument);
  EXPECT_THROW(bootstrap_percentile(ok, stat, rng, 100, 1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::stats
