// Integration tests for the mechanistic world: ground-truth extraction,
// Eq. (8) predictions vs end-to-end simulation, and complacency dynamics.
#include <gtest/gtest.h>

#include "sim/estimation.hpp"
#include "sim/feature_world.hpp"
#include "sim/ground_truth.hpp"
#include "sim/trial.hpp"
#include "stats/hypothesis.hpp"
#include "stats/special.hpp"

namespace hmdiv::sim {
namespace {

TEST(FeatureWorld, ClassMetadataComesFromGenerator) {
  auto world = reference_feature_world();
  EXPECT_EQ(world.class_count(), 2u);
  EXPECT_EQ(world.class_names()[0], "easy");
  EXPECT_EQ(world.class_names()[1], "difficult");
}

TEST(FeatureWorld, GroundTruthParametersAreOrdered) {
  auto world = reference_feature_world();
  world.set_adaptation_enabled(false);
  const auto truth = ground_truth_model(world);
  // The difficult class must be harder for both machine and human.
  EXPECT_GT(truth.parameters(1).p_machine_fails,
            truth.parameters(0).p_machine_fails);
  EXPECT_GT(truth.parameters(1).p_human_fails_given_machine_fails,
            truth.parameters(0).p_human_fails_given_machine_fails);
  // Prompts help: PHf|Ms < PHf|Mf on every class (positive t(x)).
  for (std::size_t x = 0; x < 2; ++x) {
    EXPECT_GT(truth.importance_index(x), 0.0) << x;
  }
  // Orders of magnitude in the paper's range.
  EXPECT_GT(truth.parameters(0).p_machine_fails, 0.001);
  EXPECT_LT(truth.parameters(0).p_machine_fails, 0.3);
  EXPECT_GT(truth.parameters(1).p_machine_fails, 0.1);
  EXPECT_LT(truth.parameters(1).p_machine_fails, 0.8);
}

TEST(FeatureWorld, Equation8PredictsEndToEndSimulation) {
  // The strongest integration check in the repository: the clear-box model
  // evaluated on ground-truth parameters must predict the black-box failure
  // rate of the full mechanistic pipeline.
  auto world = reference_feature_world();
  world.set_adaptation_enabled(false);
  const auto truth = ground_truth_model(world);
  const double predicted =
      truth.system_failure_probability(world.generator().profile());

  TrialRunner runner(world, 200000);
  stats::Rng sim_rng(23);
  const auto data = runner.run(sim_rng);
  EXPECT_NEAR(data.observed_failure_rate(), predicted, 0.005);
  EXPECT_NEAR(data.observed_machine_failure_rate(),
              truth.machine_failure_probability(world.generator().profile()),
              0.005);
}

TEST(FeatureWorld, EstimatedParametersMatchGroundTruth) {
  auto world = reference_feature_world();
  world.set_adaptation_enabled(false);
  const auto truth = ground_truth_model(world);

  TrialRunner runner(world, 150000);
  stats::Rng sim_rng(25);
  const auto estimate = estimate_sequential_model(runner.run(sim_rng));
  for (std::size_t x = 0; x < 2; ++x) {
    EXPECT_NEAR(estimate.classes[x].p_machine_fails,
                truth.parameters(x).p_machine_fails, 0.01)
        << x;
    EXPECT_NEAR(estimate.classes[x].importance_index(),
                truth.importance_index(x), 0.05)
        << x;
  }
}

TEST(FeatureWorld, TrialProfileReweightingHolds) {
  // Ground truth measured under one profile predicts the failure rate
  // simulated under another — Section 5's extrapolation, mechanistically.
  auto trial_world = reference_feature_world();
  trial_world.set_adaptation_enabled(false);
  const auto truth = ground_truth_model(trial_world);

  const core::DemandProfile field({"easy", "difficult"}, {0.9, 0.1});
  auto field_world = reference_feature_world(field);
  field_world.set_adaptation_enabled(false);
  TrialRunner runner(field_world, 200000);
  stats::Rng sim_rng(27);
  const auto data = runner.run(sim_rng);
  EXPECT_NEAR(data.observed_failure_rate(),
              truth.system_failure_probability(field), 0.005);
}

TEST(FeatureWorld, ImprovingTheCadtReducesSystemFailure) {
  auto world = reference_feature_world();
  world.set_adaptation_enabled(false);
  const auto before = ground_truth_model(world);
  world.replace_cadt(world.cadt().with_capability_factor(1.5));
  const auto after = ground_truth_model(world);
  EXPECT_LT(after.machine_failure_probability(world.generator().profile()),
            before.machine_failure_probability(world.generator().profile()));
  EXPECT_LT(after.system_failure_probability(world.generator().profile()),
            before.system_failure_probability(world.generator().profile()));
  // But never below the floor (the reader's PHf|Ms barely moves).
  EXPECT_GT(after.system_failure_probability(world.generator().profile()),
            0.9 * after.failure_floor(world.generator().profile()));
}

TEST(FeatureWorld, AdaptationDriftsReliance) {
  auto config_world = reference_feature_world();
  // Rebuild with an adapting reader.
  ReaderModel::Config adaptive = config_world.reader().config();
  adaptive.adaptation_rate = 0.02;
  FeatureWorld world(config_world.generator(), config_world.cadt(),
                     ReaderModel(adaptive));
  const double before = world.reader().reliance();
  stats::Rng rng(29);
  for (int i = 0; i < 5000; ++i) static_cast<void>(world.simulate_case(rng));
  // The reference CADT prompts most cancers: reliance should have grown.
  EXPECT_GT(world.reader().reliance(), before);
}

TEST(FeatureWorld, DetailedOutcomeIsConsistent) {
  auto world = reference_feature_world();
  stats::Rng rng(30);
  for (int i = 0; i < 2000; ++i) {
    const auto detail = world.simulate_detailed(rng);
    if (detail.recalled) {
      EXPECT_TRUE(detail.reader_detected);
    }
    EXPECT_LT(detail.demand.class_index, 2u);
  }
}

TEST(KolmogorovSmirnov, SimulatedDifficultiesMatchTheirSpec) {
  // End-use: the easy class's human difficulty must be
  // Normal(mean, sigma) as specified.
  const auto world = reference_feature_world();
  const auto spec = world.generator().spec(0);
  stats::Rng rng(13);
  std::vector<double> sample;
  for (int i = 0; i < 3000; ++i) {
    sample.push_back(world.generator().sample_difficulties(0, rng).first);
  }
  const auto result = stats::kolmogorov_smirnov_test(sample, [&](double x) {
    return stats::normal_cdf((x - spec.human_difficulty_mean) /
                             spec.human_difficulty_sigma);
  });
  EXPECT_GT(result.p_value, 0.01);
}

}  // namespace
}  // namespace hmdiv::sim
