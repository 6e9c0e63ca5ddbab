// Tests for the sufficient-statistic engines (DESIGN.md §17): the O(1)
// binomial sampler, the conditional-binomial multinomial, the TabularWorld
// counts trial and the cell-resampling bootstrap. The count engines are a
// new canonical stream, so their contract with the per-case record path is
// distributional (chi-square, KS and z tests at fixed seeds), plus
// bit-identity across thread counts and zero steady-state allocations.
//
// Suite names start with Binomial or CountEngines so the CI gates
// (-R '…|CountEngines|Binomial') name them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "alloc_count.hpp"
#include "core/paper_example.hpp"
#include "core/uncertainty.hpp"
#include "exec/config.hpp"
#include "sim/estimation.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "stats/bootstrap.hpp"
#include "stats/distributions.hpp"
#include "stats/hypothesis.hpp"
#include "stats/rng.hpp"

namespace hmdiv {
namespace {

// Fixed seeds make every check deterministic; the thresholds only have to
// clear the realised p-values. Tests that run many cells at once split the
// same false-alarm budget across them.
constexpr double kAlpha = 1e-3;

/// Chi-square goodness of fit of `draws` against Binomial(n, p). Values
/// are grouped into bins of expected count >= 20, the first bin taking the
/// lower tail and the last the upper tail; the pmf is summed only within
/// ten standard deviations of the mean (the rest is below 1e-22). Returns
/// the p-value, or 1 when the distribution fits in a single bin.
double binomial_fit_p(std::span<const std::uint64_t> draws, std::uint64_t n,
                      double p) {
  const double nd = static_cast<double>(n);
  const double mean = nd * p;
  const double sd = std::sqrt(nd * p * (1.0 - p));
  const auto lo = static_cast<std::uint64_t>(
      std::max(0.0, std::floor(mean - 10.0 * sd - 1.0)));
  const auto hi = static_cast<std::uint64_t>(
      std::min(nd, std::ceil(mean + 10.0 * sd + 1.0)));
  const double min_mass = 20.0 / static_cast<double>(draws.size());
  std::vector<std::uint64_t> upper;  // inclusive upper edge of each bin
  std::vector<double> mass;
  double open = 0.0;
  for (std::uint64_t k = lo; k <= hi; ++k) {
    open += stats::binomial_pmf(n, p, k);
    if (open >= min_mass) {
      upper.push_back(k);
      mass.push_back(open);
      open = 0.0;
    }
  }
  if (mass.size() < 2) return 1.0;
  // The remainder (and the upper tail) joins the last bin; the masses then
  // sum to 1 by construction.
  upper.back() = n;
  double below = 0.0;
  for (std::size_t b = 0; b + 1 < mass.size(); ++b) below += mass[b];
  mass.back() = 1.0 - below;
  std::vector<std::uint64_t> observed(mass.size(), 0);
  for (const std::uint64_t k : draws) {
    const auto bin = static_cast<std::size_t>(
        std::lower_bound(upper.begin(), upper.end(), k) - upper.begin());
    ++observed[bin];
  }
  return stats::chi_square_goodness_of_fit(observed, mass).p_value;
}

/// Two-sided p-value of a z statistic.
double z_p(double z) { return std::erfc(std::fabs(z) / std::sqrt(2.0)); }

/// Chi-square homogeneity of two samples of counts: both are binned at the
/// pooled quintiles (ties merge bins) and the 2 × bins table is tested.
double homogeneity_p(std::vector<std::uint64_t> a,
                     std::vector<std::uint64_t> b) {
  std::vector<std::uint64_t> pooled(a);
  pooled.insert(pooled.end(), b.begin(), b.end());
  std::sort(pooled.begin(), pooled.end());
  std::vector<std::uint64_t> edges;  // inclusive upper edges
  for (int q = 1; q < 5; ++q) {
    const std::uint64_t edge = pooled[pooled.size() * q / 5];
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  edges.push_back(pooled.back());
  std::vector<double> row_a(edges.size(), 0.0);
  std::vector<double> row_b(edges.size(), 0.0);
  const auto tally = [&](const std::vector<std::uint64_t>& s,
                         std::vector<double>& row) {
    for (const std::uint64_t v : s) {
      row[static_cast<std::size_t>(
          std::lower_bound(edges.begin(), edges.end(), v) - edges.begin())] +=
          1.0;
    }
  };
  tally(a, row_a);
  tally(b, row_b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double chi2 = 0.0;
  double dof = -1.0;
  for (std::size_t j = 0; j < edges.size(); ++j) {
    const double column = row_a[j] + row_b[j];
    if (column == 0.0) continue;
    const double ea = column * na / (na + nb);
    const double eb = column * nb / (na + nb);
    chi2 += (row_a[j] - ea) * (row_a[j] - ea) / ea +
            (row_b[j] - eb) * (row_b[j] - eb) / eb;
    dof += 1.0;
  }
  return dof < 1.0 ? 1.0 : stats::chi_square_sf(chi2, dof);
}

// ---------------------------------------------------------------------------
// Binomial sampler.
// ---------------------------------------------------------------------------

/// n straddles the inversion/BTRS switch (n·min(p, 1−p) = 10) for every
/// interior p of the grid: 19/20 at 0.5, 33/34 at 0.3, 333/334 at 0.97,
/// 999/1000 at 0.01, 9'999'999/10'000'000 at 1e-6.
const std::vector<std::uint64_t> kGridN = {
    0,   1,    7,    19,      20,        33,         34,
    100, 333,  334,  999,     1000,      100'000,    9'999'999,
    10'000'000,      1'000'000'000};
const std::vector<double> kGridP = {0.0, 1e-6, 0.01, 0.3, 0.5, 0.97, 1.0};

TEST(BinomialSampler, ChiSquareGoodnessOfFitAcrossTheGrid) {
  constexpr std::size_t kDraws = 20'000;
  const double alpha = kAlpha / static_cast<double>(kGridN.size() *
                                                    kGridP.size());
  std::vector<std::uint64_t> draws(kDraws);
  std::uint64_t stream = 0;
  for (const std::uint64_t n : kGridN) {
    for (const double p : kGridP) {
      stats::Rng rng(2024, stream++);
      for (auto& k : draws) k = rng.binomial(n, p);
      if (n == 0 || p == 0.0 || p == 1.0) {
        const std::uint64_t only = p == 1.0 ? n : 0;
        EXPECT_TRUE(std::all_of(draws.begin(), draws.end(),
                                [&](std::uint64_t k) { return k == only; }))
            << "n=" << n << " p=" << p;
        continue;
      }
      EXPECT_TRUE(std::all_of(draws.begin(), draws.end(),
                              [&](std::uint64_t k) { return k <= n; }));
      EXPECT_GT(binomial_fit_p(draws, n, p), alpha)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(BinomialSampler, MeanAndVarianceZTestsAcrossTheGrid) {
  constexpr std::size_t kDraws = 20'000;
  const double alpha = kAlpha / static_cast<double>(2 * kGridN.size() *
                                                    kGridP.size());
  std::uint64_t stream = 0;
  for (const std::uint64_t n : kGridN) {
    for (const double p : kGridP) {
      stats::Rng rng(77, stream++);
      const double nd = static_cast<double>(n);
      const double mean = nd * p;
      const double var = nd * p * (1.0 - p);
      if (var == 0.0) continue;  // degenerate: covered by the fit test
      // Deviations from the true mean keep the sums accurate at n = 1e9.
      double sum = 0.0;
      double sum_sq = 0.0;
      for (std::size_t i = 0; i < kDraws; ++i) {
        const double d = static_cast<double>(rng.binomial(n, p)) - mean;
        sum += d;
        sum_sq += d * d;
      }
      const double m = static_cast<double>(kDraws);
      const double z_mean = (sum / m) / std::sqrt(var / m);
      const double s2 = (sum_sq - sum * sum / m) / (m - 1.0);
      // SE of the sample variance: var·sqrt(2/(m−1) + excess kurtosis/m).
      const double kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var;
      const double z_var =
          (s2 - var) / (var * std::sqrt(2.0 / (m - 1.0) + kurtosis / m));
      EXPECT_GT(z_p(z_mean), alpha) << "mean, n=" << n << " p=" << p;
      EXPECT_GT(z_p(z_var), alpha) << "variance, n=" << n << " p=" << p;
    }
  }
}

TEST(BinomialSampler, RejectsProbabilityOutsideTheUnitInterval) {
  stats::Rng rng(1);
  EXPECT_THROW(rng.binomial(10, -0.1), std::invalid_argument);
  EXPECT_THROW(rng.binomial(10, 1.0000001), std::invalid_argument);
  EXPECT_THROW(rng.binomial(10, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(rng.binomial(0, 2.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Multinomial.
// ---------------------------------------------------------------------------

TEST(CountEnginesMultinomial, CountsSumToNAndEachMarginIsBinomial) {
  // Unnormalised, with an empty cell in the middle and one at the end.
  const std::vector<double> weights = {1.0, 0.0, 2.5, 4.0, 2.5, 0.0};
  constexpr std::uint64_t kN = 1000;
  constexpr std::size_t kDraws = 20'000;
  stats::Rng rng(31);
  std::vector<std::vector<std::uint64_t>> margins(
      weights.size(), std::vector<std::uint64_t>(kDraws));
  std::vector<std::uint64_t> out(weights.size());
  for (std::size_t r = 0; r < kDraws; ++r) {
    rng.multinomial(kN, weights, out);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      total += out[i];
      margins[i][r] = out[i];
    }
    ASSERT_EQ(total, kN);
    ASSERT_EQ(out[1], 0u);
    ASSERT_EQ(out[5], 0u);
  }
  for (const std::size_t i : {0u, 2u, 3u, 4u}) {
    EXPECT_GT(binomial_fit_p(margins[i], kN, weights[i] / 10.0), kAlpha / 4)
        << "cell " << i;
  }
}

TEST(CountEnginesMultinomial, RejectsBadWeights) {
  stats::Rng rng(1);
  std::vector<std::uint64_t> out(3);
  const std::vector<double> negative = {0.5, -0.1, 0.6};
  const std::vector<double> nan = {0.5, std::nan(""), 0.5};
  const std::vector<double> zero = {0.0, 0.0, 0.0};
  const std::vector<double> short_weights = {0.5, 0.5};
  EXPECT_THROW(rng.multinomial(10, negative, out), std::invalid_argument);
  EXPECT_THROW(rng.multinomial(10, nan, out), std::invalid_argument);
  EXPECT_THROW(rng.multinomial(10, zero, out), std::invalid_argument);
  EXPECT_THROW(rng.multinomial(10, short_weights, out), std::invalid_argument);
  // No cases to place: all-zero weights are fine and give all-zero counts.
  out = {7, 7, 7};
  rng.multinomial(0, zero, out);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Counts trial against the record trial.
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> cells_of(const sim::TrialData& data) {
  std::vector<std::uint64_t> cells(4 * data.class_names.size(), 0);
  for (const auto& r : data.records) {
    ++cells[4 * r.class_index + (r.machine_failed ? 2 : 0) +
            (r.human_failed ? 1 : 0)];
  }
  return cells;
}

TEST(CountEnginesTrial, CountsTrialMatchesRecordTrialPerCell) {
  // Per joint cell, the counts of many seeded trials from each engine must
  // come from one distribution.
  constexpr std::uint64_t kCases = 4000;
  constexpr std::uint64_t kSeeds = 400;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  const std::size_t cells = 4 * world.class_count();
  std::vector<std::vector<std::uint64_t>> counted(cells), recorded(cells);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    stats::Rng rng(seed);
    const std::vector<std::uint64_t> a =
        sim::joint_cells(world.simulate_counts(kCases, rng));
    const std::vector<std::uint64_t> b = cells_of(
        sim::TrialRunner(world, kCases).run(seed + 1'000'000,
                                            exec::Config{1}));
    for (std::size_t j = 0; j < cells; ++j) {
      counted[j].push_back(a[j]);
      recorded[j].push_back(b[j]);
    }
  }
  for (std::size_t j = 0; j < cells; ++j) {
    EXPECT_GT(homogeneity_p(counted[j], recorded[j]),
              kAlpha / static_cast<double>(cells))
        << "cell " << j;
  }
}

TEST(CountEnginesTrial, CountsAreConsistentAndSumToTheTrialSize) {
  const sim::TabularWorld world(core::paper::example_model(),
                                core::paper::trial_profile());
  stats::Rng rng(5);
  const auto counts = world.simulate_counts(123'457, rng);
  ASSERT_EQ(counts.size(), world.class_count());
  std::uint64_t total = 0;
  for (const core::ClassCounts& c : counts) {
    total += c.cases;
    EXPECT_LE(c.machine_failures, c.cases);
    EXPECT_LE(c.human_failures_given_machine_failed, c.machine_failures);
    EXPECT_LE(c.human_failures_given_machine_succeeded,
              c.cases - c.machine_failures);
  }
  EXPECT_EQ(total, 123'457u);
  // joint_cells is the inverse layout of the fold.
  const auto cells = sim::joint_cells(counts);
  std::uint64_t cell_total = 0;
  for (const std::uint64_t c : cells) cell_total += c;
  EXPECT_EQ(cell_total, total);
  EXPECT_EQ(cells[3], counts[0].human_failures_given_machine_failed);
  EXPECT_EQ(cells[5], counts[1].human_failures_given_machine_succeeded);
  std::vector<core::ClassCounts> broken = counts;
  broken[1].machine_failures = broken[1].cases + 1;
  EXPECT_THROW(sim::joint_cells(broken), std::invalid_argument);
}

TEST(CountEnginesTrial, EstimateFromCountsEqualsEstimateFromRecords) {
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  const sim::TrialData data =
      sim::TrialRunner(world, 5'000).run(9, exec::Config{1});
  std::vector<core::ClassCounts> counts(data.class_names.size());
  const auto cells = cells_of(data);
  for (std::size_t x = 0; x < counts.size(); ++x) {
    counts[x].cases =
        cells[4 * x] + cells[4 * x + 1] + cells[4 * x + 2] + cells[4 * x + 3];
    counts[x].machine_failures = cells[4 * x + 2] + cells[4 * x + 3];
    counts[x].human_failures_given_machine_failed = cells[4 * x + 3];
    counts[x].human_failures_given_machine_succeeded = cells[4 * x + 1];
  }
  const auto from_records = sim::estimate_sequential_model(data, 0.9);
  const auto from_counts =
      sim::estimate_sequential_model(data.class_names, counts, 0.9);
  ASSERT_EQ(from_counts.classes.size(), from_records.classes.size());
  for (std::size_t x = 0; x < counts.size(); ++x) {
    const auto& a = from_counts.classes[x];
    const auto& b = from_records.classes[x];
    EXPECT_EQ(a.p_machine_fails, b.p_machine_fails);
    EXPECT_EQ(a.machine_interval.lower, b.machine_interval.lower);
    EXPECT_EQ(a.machine_interval.upper, b.machine_interval.upper);
    EXPECT_EQ(a.human_given_failure_interval.lower,
              b.human_given_failure_interval.lower);
    EXPECT_EQ(a.human_given_success_interval.upper,
              b.human_given_success_interval.upper);
    EXPECT_EQ(from_counts.empirical_profile.probability(x),
              from_records.empirical_profile.probability(x));
  }
  counts[0].human_failures_given_machine_failed =
      counts[0].machine_failures + 1;
  EXPECT_THROW(sim::estimate_sequential_model(data.class_names, counts),
               std::invalid_argument);
  EXPECT_THROW(sim::estimate_sequential_model(
                   data.class_names, std::span(counts).first(1)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cell-resampling bootstrap.
// ---------------------------------------------------------------------------

TEST(CountEnginesBootstrap, ReplicatesMatchTheCaseBootstrapKS) {
  // The same sample two ways: 2000 failure indicators, or its two cells
  // {successes, failures} (odd cells are failures, as in the joint layout).
  constexpr std::uint64_t kFailures = 470;
  constexpr std::uint64_t kCases = 2000;
  constexpr std::size_t kReplicates = 4000;
  std::vector<double> indicators(kCases, 0.0);
  std::fill_n(indicators.begin(), kFailures, 1.0);
  const std::vector<std::uint64_t> cells = {kCases - kFailures, kFailures};
  // Serial runs call the statistic in replicate order after the point
  // estimate, so recording statistics capture each replicate distribution.
  std::vector<double> by_case, by_cell;
  const stats::Statistic case_stat = [&](std::span<const double> s) {
    double total = 0.0;
    for (const double v : s) total += v;
    by_case.push_back(total / static_cast<double>(s.size()));
    return by_case.back();
  };
  const stats::CountStatistic cell_stat =
      [&](std::span<const std::uint64_t> c) {
        by_cell.push_back(sim::joint_failure_rate(c));
        return by_cell.back();
      };
  stats::Rng rng_case(8), rng_cell(9);
  const auto a = stats::bootstrap_percentile(indicators, case_stat, rng_case,
                                             kReplicates, 0.95,
                                             exec::Config{1});
  const auto b = stats::bootstrap_counts(cells, cell_stat, rng_cell,
                                         kReplicates, 0.95, exec::Config{1});
  ASSERT_EQ(by_case.size(), kReplicates + 1);
  ASSERT_EQ(by_cell.size(), kReplicates + 1);
  EXPECT_EQ(a.estimate, b.estimate);
  const std::span<const double> case_reps(by_case.data() + 1, kReplicates);
  const std::span<const double> cell_reps(by_cell.data() + 1, kReplicates);
  EXPECT_GT(stats::kolmogorov_smirnov_two_sample(case_reps, cell_reps)
                .p_value,
            kAlpha);
  // And the intervals agree to within the replicates' own resolution.
  EXPECT_NEAR(a.lower, b.lower, 3.0 / kCases);
  EXPECT_NEAR(a.upper, b.upper, 3.0 / kCases);
  EXPECT_NEAR(a.standard_error, b.standard_error, 0.1 * a.standard_error);
}

TEST(CountEnginesBootstrap, BitIdenticalAcrossThreadCounts) {
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  stats::Rng trial_rng(3);
  const auto cells = sim::joint_cells(world.simulate_counts(200'000, trial_rng));
  const stats::CountStatistic failure_rate = sim::joint_failure_rate;
  std::vector<stats::BootstrapResult> results;
  std::vector<std::uint64_t> next;
  for (const unsigned threads : {1u, 2u, 8u}) {
    stats::Rng rng(99);
    results.push_back(stats::bootstrap_counts(cells, failure_rate, rng, 1000,
                                              0.95, exec::Config{threads}));
    next.push_back(rng.next_u64());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].estimate, results[0].estimate);
    EXPECT_EQ(results[i].lower, results[0].lower);
    EXPECT_EQ(results[i].upper, results[0].upper);
    EXPECT_EQ(results[i].standard_error, results[0].standard_error);
    EXPECT_EQ(next[i], next[0]);  // the caller's rng advanced one step
  }
  EXPECT_LE(results[0].lower, results[0].estimate);
  EXPECT_GE(results[0].upper, results[0].estimate);
}

TEST(CountEnginesBootstrap, RejectsAnEmptyTable) {
  stats::Rng rng(1);
  const std::vector<std::uint64_t> empty = {0, 0};
  const stats::CountStatistic stat = [](std::span<const std::uint64_t>) {
    return 0.0;
  };
  EXPECT_THROW(stats::bootstrap_counts(empty, stat, rng), std::invalid_argument);
  const std::vector<std::uint64_t> cells = {3, 4};
  EXPECT_THROW(stats::bootstrap_counts(cells, stat, rng, 0),
               std::invalid_argument);
}

TEST(CountEnginesAlloc, SamplersAndBootstrapSteadyStateDoNotAllocate) {
  const std::vector<std::uint64_t> cells = {1530, 470, 900, 35, 0, 12, 4, 1};
  const std::vector<double> weights(cells.begin(), cells.end());
  std::vector<std::uint64_t> out(cells.size());
  const stats::CountStatistic stat = sim::joint_failure_rate;
  const exec::Config serial{1};
  stats::Rng rng(17);
  // Warm-up grows the thread-local arena to the high-water mark.
  (void)stats::bootstrap_counts(cells, stat, rng, 500, 0.95, serial);
  const std::uint64_t before = test::allocation_count();
  (void)stats::bootstrap_counts(cells, stat, rng, 500, 0.95, serial);
  std::uint64_t sink = rng.binomial(1'000'000'000, 0.3) + rng.binomial(50, 0.1);
  rng.multinomial(1'000'000, weights, out);
  sink += out[0];
  EXPECT_EQ(test::allocation_count() - before, 0u);
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace hmdiv
