// Unit tests for stats/hypothesis.hpp.
#include "stats/hypothesis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/rng.hpp"
#include "stats/special.hpp"

namespace hmdiv::stats {
namespace {

TEST(TwoProportionZ, EqualProportionsGiveHighPValue) {
  const auto r = two_proportion_z_test(30, 100, 60, 200);
  EXPECT_NEAR(r.statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-12);
}

TEST(TwoProportionZ, LargeDifferenceIsSignificant) {
  const auto r = two_proportion_z_test(80, 100, 20, 100);
  EXPECT_GT(std::fabs(r.statistic), 5.0);
  EXPECT_LT(r.p_value, 1e-8);
}

TEST(TwoProportionZ, DegenerateePooledVariance) {
  const auto r = two_proportion_z_test(0, 50, 0, 50);
  EXPECT_EQ(r.statistic, 0.0);
  EXPECT_EQ(r.p_value, 1.0);
}

TEST(TwoProportionZ, RejectsBadCounts) {
  EXPECT_THROW(two_proportion_z_test(1, 0, 1, 2), std::invalid_argument);
  EXPECT_THROW(two_proportion_z_test(3, 2, 1, 2), std::invalid_argument);
}

TEST(ChiSquareSf, KnownValues) {
  // Chi-square with 1 dof: P(X >= 3.841) ~ 0.05.
  EXPECT_NEAR(chi_square_sf(3.841459, 1.0), 0.05, 1e-5);
  // 2 dof: survival = exp(-x/2).
  EXPECT_NEAR(chi_square_sf(4.0, 2.0), std::exp(-2.0), 1e-10);
  EXPECT_EQ(chi_square_sf(0.0, 3.0), 1.0);
  EXPECT_THROW(chi_square_sf(1.0, 0.0), std::invalid_argument);
}

TEST(ChiSquareGof, PerfectFitHasHighPValue) {
  const std::vector<std::uint64_t> observed{800, 200};
  const std::vector<double> expected{0.8, 0.2};
  const auto r = chi_square_goodness_of_fit(observed, expected);
  EXPECT_NEAR(r.statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-12);
}

TEST(ChiSquareGof, DetectsWrongProfile) {
  const std::vector<std::uint64_t> observed{500, 500};
  const std::vector<double> expected{0.8, 0.2};
  const auto r = chi_square_goodness_of_fit(observed, expected);
  EXPECT_LT(r.p_value, 1e-10);
}

TEST(ChiSquareGof, UniformUnderNull) {
  // p-values under the null should not be systematically tiny.
  Rng rng(321);
  const std::vector<double> expected{0.5, 0.3, 0.2};
  int rejections = 0;
  const int replicates = 500;
  for (int r = 0; r < replicates; ++r) {
    std::vector<std::uint64_t> observed(3, 0);
    for (int i = 0; i < 300; ++i) ++observed[rng.discrete(expected)];
    if (chi_square_goodness_of_fit(observed, expected).p_value < 0.05) {
      ++rejections;
    }
  }
  // Expect about 5% rejections; allow generous slack.
  EXPECT_LT(rejections, replicates / 10);
}

TEST(ChiSquareGof, RejectsBadInput) {
  const std::vector<std::uint64_t> one_cell{10};
  const std::vector<double> one_prob{1.0};
  EXPECT_THROW(chi_square_goodness_of_fit(one_cell, one_prob),
               std::invalid_argument);
  const std::vector<std::uint64_t> empty_counts{0, 0};
  const std::vector<double> probs{0.5, 0.5};
  EXPECT_THROW(chi_square_goodness_of_fit(empty_counts, probs),
               std::invalid_argument);
}

TEST(ChiSquare2x2, IndependentTableHasHighPValue) {
  // Rows proportional: no association.
  const auto r = chi_square_independence_2x2(20, 80, 10, 40);
  EXPECT_NEAR(r.statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-12);
}

TEST(ChiSquare2x2, DetectsAssociation) {
  const auto r = chi_square_independence_2x2(90, 10, 10, 90);
  EXPECT_GT(r.statistic, 100.0);
  EXPECT_LT(r.p_value, 1e-12);
}

TEST(ChiSquare2x2, DegenerateMarginsGiveNoEvidence) {
  const auto r = chi_square_independence_2x2(0, 0, 10, 20);
  EXPECT_EQ(r.p_value, 1.0);
  EXPECT_THROW(chi_square_independence_2x2(0, 0, 0, 0), std::invalid_argument);
}

TEST(KolmogorovSmirnov, AcceptsMatchingDistribution) {
  Rng rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 2000; ++i) sample.push_back(rng.normal());
  const auto result = kolmogorov_smirnov_test(
      sample, [](double x) { return normal_cdf(x); });
  EXPECT_GT(result.p_value, 0.01);
  EXPECT_LT(result.statistic, 0.05);
}

TEST(KolmogorovSmirnov, RejectsShiftedDistribution) {
  Rng rng(12);
  std::vector<double> sample;
  for (int i = 0; i < 2000; ++i) sample.push_back(rng.normal() + 0.3);
  const auto result = kolmogorov_smirnov_test(
      sample, [](double x) { return normal_cdf(x); });
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KolmogorovSmirnov, ValidatesInput) {
  const std::vector<double> empty;
  EXPECT_THROW(static_cast<void>(kolmogorov_smirnov_test(
                   empty, [](double) { return 0.5; })),
               std::invalid_argument);
  const std::vector<double> sample{0.0, 1.0};
  EXPECT_THROW(static_cast<void>(kolmogorov_smirnov_test(
                   sample, [](double) { return 2.0; })),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::stats
