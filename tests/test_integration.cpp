// Cross-module integration tests: the full paper workflow end to end, and
// consistency between the closed-form core models and the simulators.
#include <gtest/gtest.h>

#include "core/design_advisor.hpp"
#include "core/extrapolation.hpp"
#include "core/paper_example.hpp"
#include "core/parallel_model.hpp"
#include "rbd/conditional.hpp"
#include "sim/estimation.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"

namespace hmdiv {
namespace {

/// The whole Section-5 workflow against a simulated trial:
/// run trial -> estimate parameters -> extrapolate to the field ->
/// rank design improvements. Every stage must land near the paper.
TEST(Integration, FullPaperWorkflow) {
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  sim::TrialRunner runner(world, 50000);
  stats::Rng rng(2003);  // DSN 2003
  const auto data = runner.run(rng);

  const auto estimate = sim::estimate_sequential_model(data);
  const auto fitted = estimate.fitted_model();

  core::Extrapolator extrapolator(fitted, core::paper::trial_profile());
  EXPECT_NEAR(extrapolator.trial_failure_probability(), 0.235, 0.01);
  EXPECT_NEAR(extrapolator.predict_for_profile(core::paper::field_profile()),
              0.189, 0.01);

  core::DesignAdvisor advisor(fitted, core::paper::field_profile());
  EXPECT_EQ(advisor.best_target_class(), core::paper::kDifficult);
  const auto ranked = advisor.rank(
      {core::ImprovementCandidate{"easy x10", core::paper::kEasy, 0.1},
       core::ImprovementCandidate{"difficult x10", core::paper::kDifficult,
                                  0.1}});
  EXPECT_EQ(ranked[0].name, "difficult x10");
}

/// The sequential and parallel formalisms agree when the parallel
/// assumptions hold, and the RBD layer reproduces both.
TEST(Integration, ThreeFormalismsAgreeOnTheParallelWorld) {
  core::ParallelClassConditional easy;
  easy.p_machine_misses = 0.07;
  easy.p_human_misses = 0.12;
  easy.p_human_misclassifies = 0.1;
  core::ParallelClassConditional difficult;
  difficult.p_machine_misses = 0.41;
  difficult.p_human_misses = 0.55;
  difficult.p_human_misclassifies = 0.25;
  const core::ParallelDetectionModel parallel({"easy", "difficult"},
                                              {easy, difficult});
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});

  // Formalism 1: the parallel model's own Eq. (1).
  const double direct = parallel.system_failure_probability(profile);

  // Formalism 2: embedded into the sequential model (Eq. 8).
  const double sequential =
      parallel.to_sequential().system_failure_probability(profile);

  // Formalism 3: the Fig. 2 RBD evaluated per class and mixed.
  const rbd::DemandConditionalRbd diagram(
      core::ParallelDetectionModel::structure(),
      {{1 - easy.p_machine_misses, 1 - easy.p_human_misses,
        1 - easy.p_human_misclassifies},
       {1 - difficult.p_machine_misses, 1 - difficult.p_human_misses,
        1 - difficult.p_human_misclassifies}},
      stats::DiscreteDistribution({0.8, 0.2}));
  const double block_diagram = diagram.failure_probability();

  EXPECT_NEAR(direct, sequential, 1e-12);
  EXPECT_NEAR(direct, block_diagram, 1e-12);
}

/// Simulating the TabularWorld under the *field* profile must land on the
/// Eq.-(8) field prediction computed from the trial-profile model — the
/// core promise of clear-box extrapolation.
TEST(Integration, ExtrapolationPredictsSimulatedField) {
  const auto model = core::paper::example_model();
  const auto field = core::paper::field_profile();
  const double predicted = model.system_failure_probability(field);

  sim::TabularWorld field_world(model, field);
  sim::TrialRunner runner(field_world, 200000);
  stats::Rng rng(31337);
  const auto data = runner.run(rng);
  EXPECT_NEAR(data.observed_failure_rate(), predicted, 0.004);
}

/// Estimation on a world whose reader ignores the machine must produce
/// near-zero importance indices — the t(x) = 0 limit of Section 6.1.
TEST(Integration, MistrustfulReaderHasZeroImportance) {
  const auto ignored = core::paper::example_model().with_machine_ignored();
  sim::TabularWorld world(ignored, core::paper::trial_profile());
  sim::TrialRunner runner(world, 80000);
  stats::Rng rng(99);
  const auto estimate = sim::estimate_sequential_model(runner.run(rng));
  for (std::size_t x = 0; x < 2; ++x) {
    EXPECT_NEAR(estimate.classes[x].importance_index(), 0.0, 0.05) << x;
  }
  // And the association tests must find nothing.
  const auto tests = sim::association_by_class(runner.run(rng));
  for (const auto& t : tests) EXPECT_GT(t.p_value, 1e-4);
}

/// Eq. (10) covariance reproduces the gap between the true system failure
/// probability and the mean-field estimate, for the ground truth of the
/// mechanistic world as well.
TEST(Integration, CovarianceExplainsMeanFieldGap) {
  const auto model = core::paper::example_model();
  for (const auto& profile :
       {core::paper::trial_profile(), core::paper::field_profile()}) {
    const auto d = model.decompose(profile);
    const double mean_field_estimate = d.floor + d.mean_field;
    const double exact = model.system_failure_probability(profile);
    EXPECT_NEAR(exact - mean_field_estimate, d.covariance, 1e-12);
  }
}

}  // namespace
}  // namespace hmdiv
