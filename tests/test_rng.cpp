// Unit + property tests for stats/rng.hpp.
#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "stats/summary.hpp"

namespace hmdiv::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, BernoulliExtremesAreDeterministic) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatchStandardNormal) {
  Rng rng(13);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.03);
}

TEST(Rng, NormalWithParametersShiftsAndScales) {
  Rng rng(13);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(17);
  for (const double shape : {0.5, 1.0, 2.5, 9.0}) {
    OnlineStats s;
    for (int i = 0; i < 100000; ++i) s.add(rng.gamma(shape));
    EXPECT_NEAR(s.mean(), shape, 0.05 * std::max(1.0, shape)) << shape;
  }
  EXPECT_THROW(rng.gamma(0.0), std::invalid_argument);
}

TEST(Rng, BetaMeanMatchesParameters) {
  Rng rng(19);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.beta(2.0, 6.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
  EXPECT_THROW(rng.beta(0.0, 1.0), std::invalid_argument);
}

TEST(Rng, BinomialMeanMatches) {
  Rng rng(23);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(static_cast<double>(rng.binomial(40, 0.25)));
  }
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_THROW(rng.binomial(10, 1.5), std::invalid_argument);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(29);
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  Rng rng(31);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.discrete(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.discrete(negative), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStreams) {
  const Rng parent(123);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  // Correlation of the two streams should be near zero.
  std::vector<double> xs, ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(a.uniform());
    ys.push_back(b.uniform());
  }
  EXPECT_LT(std::fabs(correlation(xs, ys)), 0.03);
}

TEST(Rng, SplitIsDeterministic) {
  const Rng parent(123);
  Rng a = parent.split(9);
  Rng b = parent.split(9);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, StreamConstructorIsDeterministic) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsOfOneSeedAreDistinct) {
  // Pairwise windows of many substreams share no outputs — the practical
  // reading of "non-overlapping" for SplitMix64-hashed streams.
  constexpr int kStreams = 64;
  constexpr int kWindow = 512;
  std::set<std::uint64_t> seen;
  for (int stream = 0; stream < kStreams; ++stream) {
    Rng rng(123, static_cast<std::uint64_t>(stream));
    for (int i = 0; i < kWindow; ++i) {
      EXPECT_TRUE(seen.insert(rng.next_u64()).second)
          << "streams overlap at stream " << stream << " step " << i;
    }
  }
}

TEST(Rng, StreamZeroDiffersFromPlainSeed) {
  Rng plain(42);
  Rng stream0(42, 0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += plain.next_u64() == stream0.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, StreamIsNotXorAlias) {
  // Rng(s ^ k, 0) must not collide with Rng(s, k): both inputs are
  // whitened before they are combined.
  Rng a(0xF0F0F0F0ULL ^ 5ULL, 0);
  Rng b(0xF0F0F0F0ULL, 5);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, FillUniformMatchesScalarDraws) {
  // The bulk primitive is a loop-hoisted form of uniform(): same stream.
  Rng bulk(77), scalar(77);
  std::vector<double> filled(1000);
  bulk.fill_uniform(filled);
  for (const double v : filled) EXPECT_EQ(v, scalar.uniform());
}

TEST(Rng, FillNormalMatchesScalarDraws) {
  // Must also preserve the polar method's cached spare across the span
  // boundary: fill an odd-length span, then keep drawing from both.
  Rng bulk(78), scalar(78);
  std::vector<double> filled(999);
  bulk.fill_normal(filled);
  for (const double v : filled) EXPECT_EQ(v, scalar.normal());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(bulk.normal(), scalar.normal());
}

TEST(Rng, FillUniformEmptySpanIsNoOp) {
  Rng bulk(79), scalar(79);
  std::vector<double> empty;
  bulk.fill_uniform(empty);
  bulk.fill_normal(empty);
  EXPECT_EQ(bulk.next_u64(), scalar.next_u64());
}

/// Property sweep: moments of uniform() are correct across many seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMomentsHold) {
  Rng rng(GetParam());
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 1234567ULL,
                                           0xDEADBEEFULL, ~0ULL));

}  // namespace
}  // namespace hmdiv::stats
