// Unit + coverage-property tests for stats/intervals.hpp.
#include "stats/intervals.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "stats/rng.hpp"

namespace hmdiv::stats {
namespace {

// Coverage properties of a proportion interval, parameterised by interval
// family. Wilson, the interval the trial estimator reports, is the one
// family the library implements.
class IntervalMethod : public ::testing::TestWithParam<std::string> {};

TEST_P(IntervalMethod, BoundsAreOrderedAndClipped) {
  for (const std::uint64_t n : {1ULL, 5ULL, 30ULL, 1000ULL}) {
    for (std::uint64_t k = 0; k <= n; k += (n > 10 ? n / 7 : 1)) {
      const auto ci = wilson_interval(k, n, 0.95);
      EXPECT_LE(0.0, ci.lower);
      EXPECT_LE(ci.lower, ci.upper);
      EXPECT_LE(ci.upper, 1.0);
    }
  }
}

TEST_P(IntervalMethod, WidthShrinksWithSampleSize) {
  const auto small = wilson_interval(3, 10, 0.95);
  const auto large = wilson_interval(300, 1000, 0.95);
  EXPECT_LT(large.width(), small.width());
}

TEST_P(IntervalMethod, HigherConfidenceIsWider) {
  const auto c90 = wilson_interval(7, 20, 0.90);
  const auto c99 = wilson_interval(7, 20, 0.99);
  EXPECT_GE(c99.width(), c90.width());
}

TEST_P(IntervalMethod, RejectsBadInput) {
  EXPECT_THROW(wilson_interval(0, 0, 0.95), std::invalid_argument);
  EXPECT_THROW(wilson_interval(5, 3, 0.95), std::invalid_argument);
  EXPECT_THROW(wilson_interval(1, 3, 0.0), std::invalid_argument);
  EXPECT_THROW(wilson_interval(1, 3, 1.0), std::invalid_argument);
}

/// Empirical coverage: the fraction of simulated binomial samples whose 95%
/// interval covers the true p must not be far below 0.95.
TEST_P(IntervalMethod, EmpiricalCoverageNear95Percent) {
  Rng rng(2026);
  const double p = 0.15;
  const std::uint64_t n = 120;
  int covered = 0;
  const int replicates = 4000;
  for (int r = 0; r < replicates; ++r) {
    const std::uint64_t k = rng.binomial(n, p);
    if (wilson_interval(k, n, 0.95).contains(p)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / replicates;
  EXPECT_GT(coverage, 0.93) << GetParam();
  EXPECT_LE(coverage, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, IntervalMethod, ::testing::Values("wilson"));

TEST(Intervals, WilsonContainsPointEstimate) {
  for (std::uint64_t k = 0; k <= 50; k += 5) {
    const auto ci = wilson_interval(k, 50, 0.95);
    EXPECT_TRUE(ci.contains(static_cast<double>(k) / 50.0)) << k;
  }
}

}  // namespace
}  // namespace hmdiv::stats
