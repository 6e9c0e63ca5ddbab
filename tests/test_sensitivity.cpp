// Unit + property tests for core/sensitivity.hpp.
#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/paper_example.hpp"
#include "stats/rng.hpp"

namespace hmdiv::core {
namespace {

TEST(Sensitivity, ClosedFormsOnPaperExample) {
  const auto m = paper::example_model();
  const auto field = paper::field_profile();
  const auto grads = sensitivities(m, field);
  ASSERT_EQ(grads.size(), 2u);
  // d/dPMf(x) = p(x)·t(x).
  EXPECT_NEAR(grads[paper::kEasy].d_machine_failure, 0.9 * 0.04, 1e-12);
  EXPECT_NEAR(grads[paper::kDifficult].d_machine_failure, 0.1 * 0.5, 1e-12);
  // d/dPHf|Mf(x) = p(x)·PMf(x).
  EXPECT_NEAR(grads[paper::kEasy].d_human_given_failure, 0.9 * 0.07, 1e-12);
  EXPECT_NEAR(grads[paper::kDifficult].d_human_given_failure, 0.1 * 0.41,
              1e-12);
  // d/dPHf|Ms(x) = p(x)·PMs(x).
  EXPECT_NEAR(grads[paper::kEasy].d_human_given_success, 0.9 * 0.93, 1e-12);
  EXPECT_NEAR(grads[paper::kDifficult].d_human_given_success, 0.1 * 0.59,
              1e-12);
  // d/dp(x) = PHf(x).
  EXPECT_NEAR(grads[paper::kEasy].d_profile, 0.1428, 1e-10);
  EXPECT_NEAR(grads[paper::kDifficult].d_profile, 0.605, 1e-10);
}

TEST(Sensitivity, ReaderParametersDominateInThePaperExample) {
  // A take-away of §6.1: the floor term's gradient (reader given machine
  // success) dwarfs the machine gradient on easy cases.
  const auto grads =
      sensitivities(paper::example_model(), paper::field_profile());
  EXPECT_GT(grads[paper::kEasy].d_human_given_success,
            10.0 * grads[paper::kEasy].d_machine_failure);
}

TEST(Sensitivity, MachineDerivativeMatchesFiniteDifference) {
  const auto m = paper::example_model();
  const auto field = paper::field_profile();
  const auto grads = sensitivities(m, field);
  for (std::size_t x = 0; x < m.class_count(); ++x) {
    EXPECT_NEAR(finite_difference_machine_failure(m, field, x),
                grads[x].d_machine_failure, 1e-6)
        << x;
  }
}

TEST(Sensitivity, ValidatesInput) {
  const auto m = paper::example_model();
  const DemandProfile wrong({"x", "y"}, {0.5, 0.5});
  EXPECT_THROW(static_cast<void>(sensitivities(m, wrong)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(finite_difference_machine_failure(
                   m, paper::field_profile(), 0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(finite_difference_machine_failure(m, wrong, 0)),
      std::invalid_argument);
  // A boundary PMf makes the central difference undefined for that class.
  const SequentialModel boundary(
      {"a", "b"},
      {ClassConditional{0.0, 0.3, 0.1}, ClassConditional{0.5, 0.4, 0.2}});
  const DemandProfile profile({"a", "b"}, {0.5, 0.5});
  EXPECT_THROW(static_cast<void>(
                   finite_difference_machine_failure(boundary, profile, 0)),
               std::invalid_argument);
  EXPECT_NO_THROW(static_cast<void>(
      finite_difference_machine_failure(boundary, profile, 1)));
}

/// Property: analytic gradient equals central finite differences for random
/// models.
class GradientCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GradientCheck, FiniteDifferencesAgree) {
  stats::Rng rng(GetParam());
  const std::size_t classes = 2 + rng.uniform_index(4);
  std::vector<std::string> names;
  std::vector<ClassConditional> params;
  std::vector<double> weights;
  for (std::size_t x = 0; x < classes; ++x) {
    names.push_back("c" + std::to_string(x));
    ClassConditional c;
    c.p_machine_fails = 0.05 + 0.9 * rng.uniform();
    c.p_human_fails_given_machine_fails = rng.uniform();
    c.p_human_fails_given_machine_succeeds = rng.uniform();
    params.push_back(c);
    weights.push_back(rng.uniform() + 0.05);
  }
  const SequentialModel m(names, params);
  const auto profile = DemandProfile::from_weights(names, weights);
  const auto grads = sensitivities(m, profile);
  for (std::size_t x = 0; x < classes; ++x) {
    EXPECT_NEAR(finite_difference_machine_failure(m, profile, x),
                grads[x].d_machine_failure, 1e-5)
        << "seed=" << GetParam() << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientCheck,
                         ::testing::Range<std::uint64_t>(0, 16));

}  // namespace
}  // namespace hmdiv::core
