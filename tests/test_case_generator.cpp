// Unit tests for sim/case_generator.hpp.
#include "sim/case_generator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/hypothesis.hpp"
#include "stats/summary.hpp"

namespace hmdiv::sim {
namespace {

std::vector<CaseClassSpec> two_specs() {
  std::vector<CaseClassSpec> specs(2);
  specs[0].name = "easy";
  specs[0].human_difficulty_mean = -1.0;
  specs[0].human_difficulty_sigma = 0.5;
  specs[0].machine_difficulty_mean = -0.5;
  specs[0].machine_difficulty_sigma = 0.7;
  specs[0].difficulty_correlation = 0.6;
  specs[1].name = "difficult";
  specs[1].human_difficulty_mean = 1.5;
  specs[1].human_difficulty_sigma = 1.0;
  specs[1].machine_difficulty_mean = 1.0;
  specs[1].machine_difficulty_sigma = 1.0;
  specs[1].difficulty_correlation = -0.4;
  return specs;
}

core::DemandProfile two_profile() {
  return core::DemandProfile({"easy", "difficult"}, {0.8, 0.2});
}

TEST(CaseGenerator, ValidatesConstruction) {
  auto specs = two_specs();
  EXPECT_THROW(CaseGenerator({specs[0]}, two_profile()),
               std::invalid_argument);
  auto wrong_name = specs;
  wrong_name[1].name = "hard";
  EXPECT_THROW(CaseGenerator(wrong_name, two_profile()),
               std::invalid_argument);
  auto bad_corr = specs;
  bad_corr[0].difficulty_correlation = 1.5;
  EXPECT_THROW(CaseGenerator(bad_corr, two_profile()), std::invalid_argument);
  auto bad_sigma = specs;
  bad_sigma[0].human_difficulty_sigma = -0.1;
  EXPECT_THROW(CaseGenerator(bad_sigma, two_profile()), std::invalid_argument);
  // Non-finite specs, on each axis, would sample inf/NaN difficulties.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto inf_human_sigma = specs;
  inf_human_sigma[1].human_difficulty_sigma = inf;
  EXPECT_THROW(CaseGenerator(inf_human_sigma, two_profile()),
               std::invalid_argument);
  auto inf_machine_sigma = specs;
  inf_machine_sigma[1].machine_difficulty_sigma = inf;
  EXPECT_THROW(CaseGenerator(inf_machine_sigma, two_profile()),
               std::invalid_argument);
  auto nan_human_mean = specs;
  nan_human_mean[1].human_difficulty_mean = nan;
  EXPECT_THROW(CaseGenerator(nan_human_mean, two_profile()),
               std::invalid_argument);
  auto nan_machine_mean = specs;
  nan_machine_mean[1].machine_difficulty_mean = nan;
  EXPECT_THROW(CaseGenerator(nan_machine_mean, two_profile()),
               std::invalid_argument);
}

TEST(CaseGenerator, ClassFrequenciesMatchProfile) {
  CaseGenerator gen(two_specs(), two_profile());
  stats::Rng rng(1000);
  std::vector<std::uint64_t> counts(2, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[gen.generate(rng).class_index];
  const std::vector<double> expected{0.8, 0.2};
  const auto test = stats::chi_square_goodness_of_fit(counts, expected);
  EXPECT_GT(test.p_value, 1e-4);
}

TEST(CaseGenerator, DifficultyMomentsMatchSpecs) {
  CaseGenerator gen(two_specs(), two_profile());
  stats::Rng rng(1001);
  stats::OnlineStats human, machine;
  for (int i = 0; i < 100000; ++i) {
    const auto [h, m] = gen.sample_difficulties(1, rng);
    human.add(h);
    machine.add(m);
  }
  EXPECT_NEAR(human.mean(), 1.5, 0.02);
  EXPECT_NEAR(human.stddev(), 1.0, 0.02);
  EXPECT_NEAR(machine.mean(), 1.0, 0.02);
  EXPECT_NEAR(machine.stddev(), 1.0, 0.02);
}

TEST(CaseGenerator, CorrelationIsInduced) {
  CaseGenerator gen(two_specs(), two_profile());
  stats::Rng rng(1002);
  std::vector<double> hs, ms;
  for (int i = 0; i < 50000; ++i) {
    const auto [h, m] = gen.sample_difficulties(0, rng);
    hs.push_back(h);
    ms.push_back(m);
  }
  EXPECT_NEAR(stats::correlation(hs, ms), 0.6, 0.02);
  hs.clear();
  ms.clear();
  for (int i = 0; i < 50000; ++i) {
    const auto [h, m] = gen.sample_difficulties(1, rng);
    hs.push_back(h);
    ms.push_back(m);
  }
  EXPECT_NEAR(stats::correlation(hs, ms), -0.4, 0.02);
}

TEST(CaseGenerator, IdsAreSequentialAndCancerFlagSet) {
  CaseGenerator gen(two_specs(), two_profile());
  stats::Rng rng(1003);
  const Case first = gen.generate(rng);
  const Case second = gen.generate(rng);
  EXPECT_EQ(second.id, first.id + 1);
  EXPECT_TRUE(first.has_cancer);
}

TEST(CaseGenerator, WithProfileSwapsTheMix) {
  CaseGenerator gen(two_specs(), two_profile());
  auto field = gen.with_profile(
      core::DemandProfile({"easy", "difficult"}, {0.9, 0.1}));
  stats::Rng rng(1004);
  int difficult = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    difficult += field.generate(rng).class_index == 1 ? 1 : 0;
  }
  EXPECT_NEAR(difficult / static_cast<double>(n), 0.1, 0.01);
  EXPECT_THROW(gen.with_profile(core::DemandProfile({"a", "b"}, {0.5, 0.5})),
               std::invalid_argument);
}

TEST(CaseGenerator, SpecAccessorChecksRange) {
  CaseGenerator gen(two_specs(), two_profile());
  EXPECT_EQ(gen.spec(0).name, "easy");
  EXPECT_THROW(static_cast<void>(gen.spec(2)), std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::sim
