// Unit + integration tests for core/trial_design.hpp, including a
// Monte-Carlo check of the delta-method variance formula.
#include "core/trial_design.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/paper_example.hpp"
#include "sim/estimation.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "stats/summary.hpp"

namespace hmdiv::core {
namespace {

TEST(VarianceCoefficients, FieldWeightDrivesTheFieldPredictionObjective) {
  // Counter-intuitive but correct: for *field-prediction* precision, the
  // easy class carries the larger coefficient — its 0.9 field weight
  // squares to 0.81 and the PHf|Ms "floor" term dominates. (Deciding where
  // to improve the machine is a different objective; see the
  // ImportanceIndexCases test.)
  const auto c = variance_coefficients(paper::example_model(),
                                       paper::field_profile());
  ASSERT_EQ(c.size(), 2u);
  EXPECT_GT(c[paper::kEasy], c[paper::kDifficult]);
  // Stripped of the profile weights, the difficult class is the more
  // uncertainty-productive per case.
  EXPECT_GT(c[paper::kDifficult] / (0.1 * 0.1),
            c[paper::kEasy] / (0.9 * 0.9));
}

TEST(ImportanceIndexCases, DifficultTNeedsFewerCasesThanEasyT) {
  // Estimating t(x) needs machine failures; the easy class's PMf = 0.07
  // makes its q1 observations rare, so pinning t(easy) = 0.04 down is far
  // more expensive than pinning t(difficult) = 0.5.
  const auto model = paper::example_model();
  const auto easy = cases_for_importance_halfwidth(
      model.parameters(paper::kEasy), 0.05);
  const auto difficult = cases_for_importance_halfwidth(
      model.parameters(paper::kDifficult), 0.05);
  EXPECT_GT(easy, 2 * difficult);
  // Both are large enough that proportional field sampling (0.1 share for
  // difficult cases) would need a much larger total trial than an
  // enriched design — the paper's "reasonably short" rationale.
  EXPECT_GT(difficult, 300u);
}

TEST(ImportanceIndexCases, Validation) {
  ClassConditional degenerate;
  degenerate.p_machine_fails = 0.0;
  EXPECT_THROW(static_cast<void>(
                   cases_for_importance_halfwidth(degenerate, 0.05)),
               std::invalid_argument);
  ClassConditional ok = paper::example_model().parameters(0);
  EXPECT_THROW(static_cast<void>(cases_for_importance_halfwidth(ok, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(cases_for_importance_halfwidth(ok, 0.05,
                                                                1.5)),
               std::invalid_argument);
  // Quadratic scaling in the halfwidth.
  EXPECT_NEAR(static_cast<double>(cases_for_importance_halfwidth(ok, 0.02)) /
                  static_cast<double>(cases_for_importance_halfwidth(ok, 0.04)),
              4.0, 0.05);
}

TEST(PredictionVariance, DecreasesWithMoreCases) {
  const auto model = paper::example_model();
  const auto field = paper::field_profile();
  const double small =
      prediction_variance(model, field, {400.0, 100.0});
  const double large =
      prediction_variance(model, field, {4000.0, 1000.0});
  EXPECT_NEAR(small / large, 10.0, 1e-9);  // exactly 1/n scaling
  EXPECT_THROW(static_cast<void>(prediction_variance(model, field, {1.0})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(
                   prediction_variance(model, field, {0.0, 10.0})),
               std::invalid_argument);
}

TEST(OptimalAllocation, IsNoWorseThanAnyFixedProfile) {
  const auto model = paper::example_model();
  const auto field = paper::field_profile();
  const double total = 1000.0;
  const auto optimal = optimal_allocation(model, field, total);
  for (const auto& profile :
       {field, paper::trial_profile(),
        DemandProfile({"easy", "difficult"}, {0.5, 0.5})}) {
    const auto fixed = allocation_for_profile(model, field, profile, total);
    EXPECT_LE(optimal.predicted_standard_error,
              fixed.predicted_standard_error + 1e-12);
  }
  // The optimum enriches the difficult class beyond its 10% field share
  // (mildly, for this objective: the easy-class floor dominates).
  EXPECT_GT(optimal.trial_profile[paper::kDifficult], field[paper::kDifficult]);
  // Budget is spent exactly.
  EXPECT_NEAR(optimal.cases[0] + optimal.cases[1], total, 1e-9);
}

TEST(OptimalAllocation, MatchesNeymanClosedForm) {
  const auto model = paper::example_model();
  const auto field = paper::field_profile();
  const auto c = variance_coefficients(model, field);
  const auto design = optimal_allocation(model, field, 1000.0);
  // n_x - 1 proportional to sqrt(c_x).
  const double ratio0 = (design.cases[0] - 1.0) / std::sqrt(c[0]);
  const double ratio1 = (design.cases[1] - 1.0) / std::sqrt(c[1]);
  EXPECT_NEAR(ratio0, ratio1, 1e-9 * ratio0);
  EXPECT_THROW(static_cast<void>(optimal_allocation(model, field, 1.0)),
               std::invalid_argument);
}

TEST(TrialDesign, DeltaVarianceMatchesMonteCarlo) {
  // Simulate many trials at the paper's 80/20 allocation; the empirical
  // variance of the Eq.-(8) field prediction must match the delta formula.
  const auto model = paper::example_model();
  const auto field = paper::field_profile();
  const auto design = allocation_for_profile(model, field,
                                             paper::trial_profile(), 2000.0);
  stats::OnlineStats predictions;
  stats::Rng rng(20260708);
  for (int replicate = 0; replicate < 300; ++replicate) {
    sim::TabularWorld world(model, design.trial_profile);
    sim::TrialRunner runner(world, 2000);
    stats::Rng run_rng = rng.split(static_cast<std::uint64_t>(replicate));
    const auto data = runner.run(run_rng);
    const auto fitted = sim::estimate_sequential_model(data).fitted_model();
    predictions.add(fitted.system_failure_probability(field));
  }
  EXPECT_NEAR(predictions.stddev(), design.predicted_standard_error,
              0.25 * design.predicted_standard_error);
  // And the predictions are unbiased around the truth.
  EXPECT_NEAR(predictions.mean(), model.system_failure_probability(field),
              0.005);
}

TEST(AllocationForProfile, EnforcesFloorAndValidation) {
  const auto model = paper::example_model();
  const auto field = paper::field_profile();
  // A profile that nearly starves the difficult class still gets 1 case.
  const DemandProfile starved({"easy", "difficult"}, {0.9995, 0.0005});
  const auto design = allocation_for_profile(model, field, starved, 100.0);
  EXPECT_GE(design.cases[paper::kDifficult], 1.0);
  const DemandProfile wrong({"x", "y"}, {0.5, 0.5});
  EXPECT_THROW(static_cast<void>(
                   allocation_for_profile(model, field, wrong, 100.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::core
