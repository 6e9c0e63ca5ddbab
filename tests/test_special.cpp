// Unit + property tests for stats/special.hpp.
#include "stats/special.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace hmdiv::stats {
namespace {

TEST(Special, LogBinomialCoefficientKnownValues) {
  EXPECT_NEAR(std::exp(log_binomial_coefficient(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(52, 5)), 2598960.0, 1e-3);
  EXPECT_THROW(log_binomial_coefficient(3, 4), std::invalid_argument);
}

TEST(Special, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (const double x : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_NEAR(regularized_incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(Special, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 − I_{1−x}(b,a).
  for (const double x : {0.1, 0.3, 0.7}) {
    EXPECT_NEAR(regularized_incomplete_beta(2.5, 4.0, x),
                1.0 - regularized_incomplete_beta(4.0, 2.5, 1.0 - x), 1e-12);
  }
}

TEST(Special, IncompleteBetaKnownValue) {
  // I_{0.5}(2,2) = 0.5 by symmetry; I_{0.25}(2,2) = 3x^2 - 2x^3 at 0.25.
  EXPECT_NEAR(regularized_incomplete_beta(2.0, 2.0, 0.5), 0.5, 1e-12);
  const double x = 0.25;
  EXPECT_NEAR(regularized_incomplete_beta(2.0, 2.0, x),
              3.0 * x * x - 2.0 * x * x * x, 1e-12);
}

TEST(Special, IncompleteBetaRejectsBadArguments) {
  EXPECT_THROW(regularized_incomplete_beta(0.0, 1.0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(regularized_incomplete_beta(1.0, 1.0, -0.1),
               std::invalid_argument);
  EXPECT_THROW(regularized_incomplete_beta(1.0, 1.0, 1.1),
               std::invalid_argument);
}

TEST(Special, IncompleteGammaBoundariesAndKnownValues) {
  EXPECT_EQ(regularized_lower_incomplete_gamma(1.0, 0.0), 0.0);
  // P(1, x) = 1 − e^{−x}.
  for (const double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(regularized_lower_incomplete_gamma(1.0, x), 1.0 - std::exp(-x),
                1e-12);
  }
  // Chi-square(2) at its median ~1.3863: P = 0.5.
  EXPECT_NEAR(regularized_lower_incomplete_gamma(1.0, 0.5 * 1.3862943611),
              0.5, 1e-9);
  EXPECT_THROW(regularized_lower_incomplete_gamma(0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(regularized_lower_incomplete_gamma(1.0, -1.0),
               std::invalid_argument);
}

TEST(Special, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
}

/// Φ(z) references across the far tails (|z| up to 8), computed with
/// 80-bit long-double erfc — ~5 decimal digits more precision than the
/// values under test. The batched overload shares these via the
/// bit-identity check below.
struct PhiReference {
  double z;
  double phi;
};
constexpr PhiReference kPhiReferences[] = {
    {-8.00000, 6.22096057427178413436e-16},
    {-7.25000, 2.08385815867206943063e-13},
    {-6.50000, 4.01600058385911781711e-11},
    {-5.75000, 4.46217245390161187480e-09},
    {-5.00000, 2.86651571879193911854e-07},
    {-4.25000, 1.06885257749344204776e-05},
    {-3.50000, 2.32629079035525036293e-04},
    {-2.75000, 2.97976323505455675426e-03},
    {-2.00000, 2.27501319481792072029e-02},
    {-1.25000, 1.05649773666855257691e-01},
    {-0.50000, 3.08537538725986896376e-01},
    {0.50000, 6.91462461274013103624e-01},
    {1.25000, 8.94350226333144742309e-01},
    {2.00000, 9.77249868051820792824e-01},
    {2.75000, 9.97020236764945443271e-01},
    {3.50000, 9.99767370920964474983e-01},
    {4.25000, 9.99989311474225065597e-01},
    {5.00000, 9.99999713348428120809e-01},
    {5.75000, 9.99999995537827546092e-01},
    {6.50000, 9.99999999959839994145e-01},
    {7.25000, 9.99999999999791614174e-01},
    {8.00000, 9.99999999999999377885e-01},
};

TEST(Special, NormalCdfFarTailRelativeAccuracy) {
  // The far tail is where naive 1 − Φ(−z) formulations lose all relative
  // precision (Φ(−8) ~ 6e-16 is below one ulp of 1.0). The Cody kernel must
  // hold *relative* error everywhere on |z| <= 8.
  for (const auto& [z, reference] : kPhiReferences) {
    const double got = normal_cdf(z);
    const double rel = std::fabs(got - reference) / reference;
    EXPECT_LT(rel, 1e-13) << "z = " << z << " got " << got;
  }
}

TEST(Special, NormalCdfBatchedMatchesScalarBitwise) {
  // Ascending, descending and shuffled inputs must all reproduce the
  // scalar path bit-for-bit; the far-tail accuracy above therefore covers
  // the batched overload too.
  std::vector<double> ascending;
  for (const auto& ref : kPhiReferences) ascending.push_back(ref.z);
  // Denser grid around the region cuts (|x| = z/√2 near 0.46875, 4, 26.5).
  for (double z = -40.0; z <= 40.0; z += 0.37) ascending.push_back(z);
  std::sort(ascending.begin(), ascending.end());

  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  std::vector<double> shuffled = ascending;
  for (std::size_t i = 1; i < shuffled.size(); i += 2) {
    std::swap(shuffled[i - 1], shuffled[i]);
  }

  for (const auto& input : {ascending, descending, shuffled}) {
    std::vector<double> batch(input.size());
    normal_cdf(std::span<const double>(input), std::span<double>(batch));
    for (std::size_t i = 0; i < input.size(); ++i) {
      const double scalar = normal_cdf(input[i]);
      EXPECT_EQ(std::memcmp(&batch[i], &scalar, sizeof(double)), 0)
          << "z = " << input[i];
    }
  }
}

TEST(Special, NormalCdfEdgeCases) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(normal_cdf(inf), 1.0);
  EXPECT_EQ(normal_cdf(-inf), 0.0);
  EXPECT_EQ(normal_cdf(40.0), 1.0);   // flush region: exactly 1
  EXPECT_EQ(normal_cdf(-40.0), 0.0);  // flush region: exactly 0
  EXPECT_TRUE(std::isnan(normal_cdf(std::numeric_limits<double>::quiet_NaN())));

  std::vector<double> z = {1.0, 2.0};
  std::vector<double> out(3);
  EXPECT_THROW(
      normal_cdf(std::span<const double>(z), std::span<double>(out)),
      std::invalid_argument);
}

TEST(Special, NormalQuantileRoundTrip) {
  for (double p = 0.0005; p < 1.0; p += 0.013) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-11) << p;
  }
}

TEST(Special, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-8);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963985, 1e-8);
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::stats
