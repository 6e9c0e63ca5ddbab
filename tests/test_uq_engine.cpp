// Tests for the batched uncertainty engine: the bulk fill_gamma/fill_beta
// kernels, the fused sample-and-evaluate posterior path, and its
// contracts — statistical equivalence with the scalar reference,
// bit-identical results across thread counts, zero steady-state heap
// allocations, and NaN propagation.
#include "core/uncertainty.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "alloc_count.hpp"
#include "core/paper_example.hpp"
#include "exec/config.hpp"
#include "stats/bootstrap.hpp"
#include "stats/hypothesis.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"

namespace hmdiv::core {
namespace {

// House convention for stochastic assertions (see test_batch_sim.cpp):
// each statistical test uses a fixed seed, so it either always passes or
// always fails, and the acceptance threshold is far below any plausible
// false-alarm appetite.
constexpr double kAlpha = 1e-3;

std::vector<ClassCounts> paper_counts() {
  ClassCounts easy;
  easy.cases = 800;
  easy.machine_failures = 56;
  easy.human_failures_given_machine_failed = 28;
  easy.human_failures_given_machine_succeeded = 40;
  ClassCounts difficult;
  difficult.cases = 200;
  difficult.machine_failures = 82;
  difficult.human_failures_given_machine_failed = 74;
  difficult.human_failures_given_machine_succeeded = 30;
  return {easy, difficult};
}

PosteriorModelSampler paper_sampler() {
  return PosteriorModelSampler({"easy", "difficult"}, paper_counts());
}

/// Two-sample z-test on means (unequal variances); returns the p-value.
double mean_z_test_p(std::span<const double> a, std::span<const double> b) {
  auto moments = [](std::span<const double> s) {
    double sum = 0.0;
    for (const double v : s) sum += v;
    const double mean = sum / static_cast<double>(s.size());
    double m2 = 0.0;
    for (const double v : s) m2 += (v - mean) * (v - mean);
    return std::pair{mean, m2 / static_cast<double>(s.size() - 1)};
  };
  const auto [ma, va] = moments(a);
  const auto [mb, vb] = moments(b);
  const double se = std::sqrt(va / static_cast<double>(a.size()) +
                              vb / static_cast<double>(b.size()));
  const double z = (ma - mb) / se;
  return 2.0 * (1.0 - stats::normal_cdf(std::fabs(z)));
}

// ---------------------------------------------------------------------------
// Statistical equivalence: batched kernels vs their scalar references.
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineStats, FillGammaMatchesGammaCdf) {
  // One shape per regime: large (the posterior shapes of an 800-case
  // class), moderate, and boosted (< 1, exercised via Gamma(shape+1)·u^(1/k)).
  for (const double shape : {744.5, 2.5, 0.5}) {
    stats::Rng rng(77);
    const stats::Rng::GammaPrep prep(shape);
    std::vector<double> draws(40'000);
    rng.fill_gamma(prep, draws);
    const auto ks = stats::kolmogorov_smirnov_test(draws, [&](double x) {
      return x <= 0.0 ? 0.0
                      : stats::regularized_lower_incomplete_gamma(shape, x);
    });
    EXPECT_GT(ks.p_value, kAlpha)
        << "shape " << shape << " KS statistic " << ks.statistic;
  }
}

TEST(UncertaintyEngineStats, FillBetaMatchesBetaCdf) {
  const std::pair<double, double> shapes[] = {{56.5, 744.5}, {2.5, 3.5},
                                              {0.5, 0.5}};
  for (const auto& [a, b] : shapes) {
    stats::Rng rng(123);
    const stats::Rng::GammaPrep prep_a(a);
    const stats::Rng::GammaPrep prep_b(b);
    std::vector<double> draws(40'000);
    rng.fill_beta(prep_a, prep_b, draws);
    const auto ks = stats::kolmogorov_smirnov_test(
        draws, [&](double x) { return stats::beta_cdf(a, b, x); });
    EXPECT_GT(ks.p_value, kAlpha)
        << "Beta(" << a << "," << b << ") KS statistic " << ks.statistic;
  }
}

TEST(UncertaintyEngineStats, FillBetaMatchesScalarBetaDraws) {
  // Two-sample KS: the batched kernel against the scalar beta() the
  // per-draw reference path uses, same shapes, independent streams.
  const stats::Rng::GammaPrep prep_a(82.5), prep_b(118.5);
  stats::Rng rng_batch(5), rng_scalar(6);
  std::vector<double> batched(30'000), scalar(30'000);
  rng_batch.fill_beta(prep_a, prep_b, batched);
  for (double& v : scalar) v = rng_scalar.beta(prep_a, prep_b);
  const auto ks = stats::kolmogorov_smirnov_two_sample(batched, scalar);
  EXPECT_GT(ks.p_value, kAlpha) << "KS statistic " << ks.statistic;
}

TEST(UncertaintyEngineStats, BatchedPosteriorMatchesScalarReference) {
  // The full fused path vs the pre-batching scalar loop: sample the
  // posterior predictive failure probability both ways and compare with a
  // two-sample KS test, a z-test on means, and a chi-square over decile
  // bins of the scalar empirical distribution.
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  const exec::Config serial{1};
  constexpr std::size_t kDraws = 20'000;

  stats::Rng rng_batch(31);
  std::vector<double> batched(kDraws);
  sampler.sample_failure_probabilities(profile, rng_batch, batched, serial);

  stats::Rng rng_scalar(32);
  std::vector<double> scalar(kDraws);
  for (double& v : scalar) {
    v = sampler.sample(rng_scalar).system_failure_probability(profile);
  }

  const auto ks = stats::kolmogorov_smirnov_two_sample(batched, scalar);
  EXPECT_GT(ks.p_value, kAlpha) << "KS statistic " << ks.statistic;

  EXPECT_GT(mean_z_test_p(batched, scalar), kAlpha);

  // Two-sample homogeneity chi-square over decile bins. The edges come
  // from an independent pilot sample — edges derived from one of the
  // compared samples would make its own bin counts exact (no noise) while
  // the test assumes both are noisy, inflating the statistic.
  std::vector<double> edges(kDraws);
  stats::Rng rng_edges(33);
  for (double& v : edges) {
    v = sampler.sample(rng_edges).system_failure_probability(profile);
  }
  std::sort(edges.begin(), edges.end());
  const auto bin_of = [&](double v) {
    std::size_t bin = 0;
    while (bin < 9 && v > edges[(bin + 1) * kDraws / 10 - 1]) ++bin;
    return bin;
  };
  double counts_batched[10] = {0}, counts_scalar[10] = {0};
  for (const double v : batched) ++counts_batched[bin_of(v)];
  for (const double v : scalar) ++counts_scalar[bin_of(v)];
  // Equal sample sizes: X² = Σ (a−b)²/(a+b) is chi-square with k−1 dof
  // under homogeneity.
  double x2 = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double total = counts_batched[i] + counts_scalar[i];
    ASSERT_GT(total, 0.0);
    const double diff = counts_batched[i] - counts_scalar[i];
    x2 += diff * diff / total;
  }
  EXPECT_GT(stats::chi_square_sf(x2, 9.0), kAlpha) << "chi-square " << x2;
}

TEST(UncertaintyEngineStats, PredictAgreesWithPredictReference) {
  // Same workload through both entry points: the summaries must agree to
  // within a few Monte-Carlo standard errors (they use different draws).
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  const exec::Config serial{1};
  stats::Rng rng_a(7), rng_b(8);
  const auto batched = sampler.predict(profile, rng_a, 40'000, 0.95, serial);
  const auto reference =
      sampler.predict_reference(profile, rng_b, 40'000, 0.95, serial);
  const double se = batched.stddev / std::sqrt(40'000.0);
  EXPECT_NEAR(batched.mean, reference.mean, 5.0 * se);
  EXPECT_NEAR(batched.stddev, reference.stddev, 0.05 * reference.stddev);
  // Sample quantiles are noisier than the mean (SE ≈ sqrt(p(1-p)/n)/f(q),
  // several times the SE of the mean here), so the bound is looser.
  EXPECT_NEAR(batched.lower, reference.lower, 30.0 * se);
  EXPECT_NEAR(batched.upper, reference.upper, 30.0 * se);
}

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineDeterminism, PredictBitIdenticalAcrossThreadCounts) {
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  stats::Rng rng1(99), rng4(99);
  const auto serial = sampler.predict(profile, rng1, 10'000, 0.95,
                                      exec::Config{1});
  const auto wide = sampler.predict(profile, rng4, 10'000, 0.95,
                                    exec::Config{4});
  EXPECT_EQ(serial.mean, wide.mean);
  EXPECT_EQ(serial.stddev, wide.stddev);
  EXPECT_EQ(serial.lower, wide.lower);
  EXPECT_EQ(serial.upper, wide.upper);
}

TEST(UncertaintyEngineDeterminism, SampleBufferIdenticalAcrossThreadCounts) {
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  stats::Rng rng1(4242), rng4(4242);
  std::vector<double> serial(5'000), wide(5'000);
  sampler.sample_failure_probabilities(profile, rng1, serial, exec::Config{1});
  sampler.sample_failure_probabilities(profile, rng4, wide, exec::Config{4});
  EXPECT_EQ(serial, wide);
}

// ---------------------------------------------------------------------------
// Zero steady-state heap allocations (counting operator new harness shared
// with the sweep engine tests via alloc_count.hpp).
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineAlloc, PredictSteadyStateDoesNotAllocate) {
  const auto sampler = paper_sampler();
  const auto profile = paper::field_profile();
  const exec::Config serial{1};
  stats::Rng rng(1);
  // Warm-up grows the thread-local arena to the high-water mark.
  (void)sampler.predict(profile, rng, 8'192, 0.95, serial);
  const std::uint64_t before = test::allocation_count();
  (void)sampler.predict(profile, rng, 8'192, 0.95, serial);
  EXPECT_EQ(test::allocation_count() - before, 0u);
}

TEST(BootstrapAlloc, PercentileSteadyStateDoesNotAllocate) {
  std::vector<double> sample(256);
  stats::Rng fill(3);
  fill.fill_uniform(sample);
  const stats::Statistic mean_stat = [](std::span<const double> s) {
    double total = 0.0;
    for (const double v : s) total += v;
    return total / static_cast<double>(s.size());
  };
  const exec::Config serial{1};
  stats::Rng rng(17);
  (void)stats::bootstrap_percentile(sample, mean_stat, rng, 500, 0.95, serial);
  const std::uint64_t before = test::allocation_count();
  (void)stats::bootstrap_percentile(sample, mean_stat, rng, 500, 0.95, serial);
  EXPECT_EQ(test::allocation_count() - before, 0u);
}

// ---------------------------------------------------------------------------
// NaN propagation: an undefined statistic must come out as NaN, never as a
// confident-looking clamped bound.
// ---------------------------------------------------------------------------

TEST(UncertaintyEngineNaN, SummariseWithNaNDrawIsAllNaN) {
  std::vector<double> draws(100, 0.25);
  draws[37] = std::numeric_limits<double>::quiet_NaN();
  const auto out = PosteriorModelSampler::summarise(draws, 0.95);
  EXPECT_TRUE(std::isnan(out.mean));
  EXPECT_TRUE(std::isnan(out.stddev));
  EXPECT_TRUE(std::isnan(out.lower));
  EXPECT_TRUE(std::isnan(out.upper));
}

TEST(BootstrapNaN, NaNStatisticPropagatesToIntervalAndStandardError) {
  std::vector<double> sample(64, 1.0);
  sample[0] = -1.0;
  const stats::Statistic fragile = [](std::span<const double> s) {
    // log of the mean: NaN whenever the resample mean dips negative —
    // and with 63 ones and one -1 some resamples will.
    double total = 0.0;
    for (const double v : s) total += v;
    return std::log(total / static_cast<double>(s.size()) - 0.999);
  };
  stats::Rng rng(5);
  const auto result =
      stats::bootstrap_percentile(sample, fragile, rng, 200, 0.95,
                                  exec::Config{1});
  EXPECT_TRUE(std::isnan(result.lower));
  EXPECT_TRUE(std::isnan(result.upper));
  EXPECT_TRUE(std::isnan(result.standard_error));
}

}  // namespace
}  // namespace hmdiv::core
