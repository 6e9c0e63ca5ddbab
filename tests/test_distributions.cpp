// Unit + property tests for stats/distributions.hpp.
#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/rng.hpp"

namespace hmdiv::stats {
namespace {

TEST(Binomial, PmfSumsToOne) {
  for (const double p : {0.0, 0.2, 0.5, 0.97, 1.0}) {
    double total = 0.0;
    for (std::uint64_t k = 0; k <= 30; ++k) total += binomial_pmf(30, p, k);
    EXPECT_NEAR(total, 1.0, 1e-12) << p;
  }
}

TEST(Binomial, PmfKnownValues) {
  EXPECT_NEAR(binomial_pmf(4, 0.5, 2), 0.375, 1e-12);
  EXPECT_NEAR(binomial_pmf(10, 0.1, 0), std::pow(0.9, 10), 1e-12);
  EXPECT_EQ(binomial_pmf(5, 0.3, 6), 0.0);
}

TEST(Binomial, CdfMatchesPmfSum) {
  const std::uint64_t n = 25;
  const double p = 0.37;
  double running = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    running += binomial_pmf(n, p, k);
    EXPECT_NEAR(binomial_cdf(n, p, k), running, 1e-10) << k;
  }
  EXPECT_EQ(binomial_cdf(n, p, n), 1.0);
}

TEST(Binomial, RejectsBadProbability) {
  EXPECT_THROW(binomial_pmf(5, -0.1, 2), std::invalid_argument);
  EXPECT_THROW(binomial_cdf(5, 1.1, 2), std::invalid_argument);
}

TEST(Beta, PdfIntegratesToOne) {
  // Trapezoidal integration on interior (a,b > 1 so pdf finite at ends).
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {2.0, 2.0}, {3.0, 1.5}, {5.0, 8.0}}) {
    const int steps = 20000;
    double total = 0.0;
    for (int i = 0; i <= steps; ++i) {
      const double x = static_cast<double>(i) / steps;
      const double w = (i == 0 || i == steps) ? 0.5 : 1.0;
      total += w * beta_pdf(a, b, x) / steps;
    }
    EXPECT_NEAR(total, 1.0, 1e-4) << a << "," << b;
  }
}

TEST(Beta, PdfOutsideSupportIsZero) {
  EXPECT_EQ(beta_pdf(2.0, 2.0, -0.1), 0.0);
  EXPECT_EQ(beta_pdf(2.0, 2.0, 1.1), 0.0);
}

/// Reference values for I_x(a, b) at extreme shapes, mirroring the
/// kPhiReferences far-tail suite in test_special.cpp. Computed with
/// mpmath at 50 significant digits: small-shape rows via betainc,
/// large-shape rows (where betainc's series fails to converge) via
/// adaptive quadrature of the log-space density split at its peak.
struct BetaReference {
  double a;
  double b;
  double x;
  double value;
};

constexpr BetaReference kBetaCdfReferences[] = {
    // a or b < 1e-3 boundary region and x pinned near 0 / 1.
    {1.000000e-04, 1.000000e+00, 1.00000000000000004e-10,
     9.97700063822553273596e-01},
    {1.000000e-04, 1.000000e+00, 5.00000000000000000e-01,
     9.99930687684153607364e-01},
    {1.000000e+00, 1.000000e-04, 5.00000000000000000e-01,
     6.93123158464280892874e-05},
    {1.000000e+00, 1.000000e-04, 9.99999999899999992e-01,
     2.29993616919167611495e-03},
    {1.000000e-03, 1.000000e-03, 5.00000000000000000e-01,
     5.00000000000000000000e-01},
    {5.000000e-01, 5.000000e-01, 1.00000000000000004e-10,
     6.36619772378191689445e-06},
    {5.000000e-01, 5.000000e-01, 9.99999999068677425e-01,
     9.99980571906357806888e-01},
};

constexpr BetaReference kBetaCdfLargeShapeReferences[] = {
    // a + b > 1e6: the distribution concentrates in a ~5e-4-wide spike, so
    // x must be chosen within a few standard deviations of a/(a+b).
    {6.000000e+05, 5.000000e+05, 5.45399999999999996e-01,
     4.54242976342055182482e-01},
    {6.000000e+05, 5.000000e+05, 5.46000000000000041e-01,
     8.74707822167668513913e-01},
    {6.000000e+05, 5.000000e+05, 5.44900000000000051e-01,
     1.21395308430037054959e-01},
    {1.000000e+06, 2.500000e+00, 9.99998999999999971e-01,
     8.49144690153511016995e-01},
    {1.000000e+06, 2.500000e+00, 9.99999900000000053e-01,
     9.99113859490354916382e-01},
    {2.500000e+00, 1.000000e+06, 9.99999999999999955e-07,
     1.50855309838531154165e-01},
    {2.500000e+00, 1.000000e+06, 3.99999999999999982e-06,
     8.43765584884056729642e-01},
};

TEST(Beta, CdfExtremeShapeRelativeAccuracy) {
  for (const auto& [a, b, x, reference] : kBetaCdfReferences) {
    const double got = beta_cdf(a, b, x);
    const double rel = std::fabs(got - reference) / reference;
    EXPECT_LT(rel, 1e-12) << "a=" << a << " b=" << b << " x=" << x
                          << " got=" << got;
  }
  // The Lentz continued fraction converges more slowly at huge total
  // counts; ~1e-9 relative is what 300 iterations deliver there.
  for (const auto& [a, b, x, reference] : kBetaCdfLargeShapeReferences) {
    const double got = beta_cdf(a, b, x);
    const double rel = std::fabs(got - reference) / reference;
    EXPECT_LT(rel, 1e-8) << "a=" << a << " b=" << b << " x=" << x
                         << " got=" << got;
  }
}

TEST(DiscreteDistribution, ValidatesInput) {
  EXPECT_THROW(DiscreteDistribution({}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({0.5, 0.6}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({-0.1, 1.1}), std::invalid_argument);
  EXPECT_NO_THROW(DiscreteDistribution({0.8, 0.2}));
}

TEST(DiscreteDistribution, FromWeightsNormalises) {
  const auto d = DiscreteDistribution::from_weights({2.0, 6.0});
  EXPECT_NEAR(d[0], 0.25, 1e-12);
  EXPECT_NEAR(d[1], 0.75, 1e-12);
  EXPECT_THROW(DiscreteDistribution::from_weights({0.0, 0.0}),
               std::invalid_argument);
}

TEST(DiscreteDistribution, ExpectationIsWeightedAverage) {
  const DiscreteDistribution d({0.8, 0.2});
  const std::vector<double> values{0.143, 0.605};
  EXPECT_NEAR(d.expectation(values), 0.8 * 0.143 + 0.2 * 0.605, 1e-12);
  const std::vector<double> wrong_size{1.0};
  EXPECT_THROW(d.expectation(wrong_size), std::invalid_argument);
}

TEST(DiscreteDistribution, SamplingMatchesProbabilities) {
  const DiscreteDistribution d({0.1, 0.6, 0.3});
  Rng rng(99);
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[d.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.6, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.3, 0.01);
}

TEST(AliasTable, ValidatesInput) {
  const std::vector<double> empty;
  EXPECT_THROW(AliasTable{std::span<const double>(empty)},
               std::invalid_argument);
  const std::vector<double> not_normalised{0.5, 0.6};
  EXPECT_THROW(AliasTable{std::span<const double>(not_normalised)},
               std::invalid_argument);
  const std::vector<double> negative{-0.1, 1.1};
  EXPECT_THROW(AliasTable{std::span<const double>(negative)},
               std::invalid_argument);
  const std::vector<double> nan_entry{std::nan(""), 1.0};
  EXPECT_THROW(AliasTable{std::span<const double>(nan_entry)},
               std::invalid_argument);
}

TEST(AliasTable, SingleClassAlwaysReturnsZero) {
  const std::vector<double> p{1.0};
  const AliasTable table{std::span<const double>(p)};
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
  EXPECT_EQ(table.sample_from_uniform(0.0), 0u);
  EXPECT_EQ(table.sample_from_uniform(0.999999), 0u);
}

TEST(AliasTable, ZeroProbabilityClassIsNeverDrawn) {
  const std::vector<double> p{0.4, 0.0, 0.6};
  const AliasTable table{std::span<const double>(p)};
  Rng rng(2);
  for (int i = 0; i < 200000; ++i) EXPECT_NE(table.sample(rng), 1u);
}

TEST(AliasTable, FrequenciesMatchSkewedDistribution) {
  // Mixes a tiny and a dominant mass — the case Vose's variant keeps exact.
  const std::vector<double> p{0.001, 0.799, 0.15, 0.05};
  const AliasTable table{std::span<const double>(p)};
  Rng rng(3);
  std::vector<int> counts(p.size(), 0);
  const int n = 1000000;
  for (int i = 0; i < n; ++i) ++counts[table.sample(rng)];
  for (std::size_t k = 0; k < p.size(); ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), p[k],
                0.005 + 3.0 * std::sqrt(p[k] * (1.0 - p[k]) / n))
        << k;
  }
}

TEST(AliasTable, SampleConsumesExactlyOneUniform) {
  const DiscreteDistribution d({0.25, 0.25, 0.5});
  Rng via_table(4), via_uniform(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.alias().sample(via_table),
              d.alias().sample_from_uniform(via_uniform.uniform()));
  }
  EXPECT_EQ(via_table.next_u64(), via_uniform.next_u64());
}

}  // namespace
}  // namespace hmdiv::stats
