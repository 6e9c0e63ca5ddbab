// Edge-case and failure-injection tests across the pipeline: degenerate
// probabilities, extreme models, and partially-observable trials must be
// handled gracefully (exact answers or clean exceptions — never NaNs).
#include <gtest/gtest.h>

#include <cmath>

#include "core/aggregation.hpp"
#include "core/design_advisor.hpp"
#include "core/sequential_model.hpp"
#include "core/uncertainty.hpp"
#include "sim/estimation.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "stats/intervals.hpp"

namespace hmdiv {
namespace {

using core::ClassConditional;
using core::DemandProfile;
using core::SequentialModel;

SequentialModel extreme_model() {
  ClassConditional perfect_machine;   // PMf = 0: PHf|Mf unobservable
  perfect_machine.p_machine_fails = 0.0;
  perfect_machine.p_human_fails_given_machine_fails = 0.5;  // irrelevant
  perfect_machine.p_human_fails_given_machine_succeeds = 0.1;
  ClassConditional hopeless_machine;  // PMf = 1: PHf|Ms unobservable
  hopeless_machine.p_machine_fails = 1.0;
  hopeless_machine.p_human_fails_given_machine_fails = 0.8;
  hopeless_machine.p_human_fails_given_machine_succeeds = 0.5;
  ClassConditional perfect_human;
  perfect_human.p_machine_fails = 0.3;
  return SequentialModel({"perfect-machine", "hopeless-machine",
                          "perfect-human"},
                         {perfect_machine, hopeless_machine, perfect_human});
}

TEST(EdgeCases, DegenerateProbabilitiesEvaluateExactly) {
  const auto m = extreme_model();
  const DemandProfile p(m.class_names(), {0.5, 0.3, 0.2});
  // Class contributions: 0.5*0.1 + 0.3*0.8 + 0.2*0 = 0.29.
  EXPECT_NEAR(m.system_failure_probability(p), 0.29, 1e-12);
  const auto d = m.decompose(p);
  EXPECT_NEAR(d.total(), 0.29, 1e-12);
  EXPECT_TRUE(std::isfinite(d.covariance));
}

TEST(EdgeCases, DesignAdvisorHandlesZeroAndOneMachineFailure) {
  const auto m = extreme_model();
  const DemandProfile p(m.class_names(), {0.5, 0.3, 0.2});
  core::DesignAdvisor advisor(m, p);
  const auto diagnosis = advisor.diagnose();
  EXPECT_TRUE(std::isfinite(diagnosis.correlation));
  for (const double leverage : diagnosis.class_leverage) {
    EXPECT_TRUE(std::isfinite(leverage));
  }
  // Improving the perfect machine is a no-op; the hopeless one has
  // leverage 0.3·(0.8−0.5)·1.0.
  EXPECT_NEAR(diagnosis.class_leverage[1], 0.3 * 0.3 * 1.0, 1e-12);
  EXPECT_EQ(advisor.best_target_class(), 1u);
}

TEST(EdgeCases, SingleClassModelWorksEverywhere) {
  ClassConditional only;
  only.p_machine_fails = 0.2;
  only.p_human_fails_given_machine_fails = 0.6;
  only.p_human_fails_given_machine_succeeds = 0.3;
  const SequentialModel m({"only"}, {only});
  const DemandProfile p({"only"}, {1.0});
  EXPECT_NEAR(m.system_failure_probability(p), 0.3 * 0.8 + 0.6 * 0.2, 1e-12);
  // Covariance over a single class is zero: no between-class variation.
  EXPECT_NEAR(m.decompose(p).covariance, 0.0, 1e-15);
  // Aggregating one class into one class is the identity.
  core::ClassPartition identity;
  identity.coarse_names = {"only"};
  identity.group_of = {0};
  const auto view = core::coarsen(m, p, identity);
  EXPECT_NEAR(view.model.system_failure_probability(view.profile),
              m.system_failure_probability(p), 1e-15);
}

TEST(EdgeCases, TrialOnDegenerateWorldNeverEmitsImpossibleEvents) {
  const auto m = extreme_model();
  const DemandProfile p(m.class_names(), {0.4, 0.3, 0.3});
  sim::TabularWorld world(m, p);
  sim::TrialRunner runner(world, 30000);
  stats::Rng rng(777);
  const auto data = runner.run(rng);
  for (const auto& r : data.records) {
    if (r.class_index == 0) {
      EXPECT_FALSE(r.machine_failed);
    }
    if (r.class_index == 1) {
      EXPECT_TRUE(r.machine_failed);
    }
    if (r.class_index == 2) {
      EXPECT_FALSE(r.human_failed);
    }
  }
}

TEST(EdgeCases, EstimationSurvivesUnobservableConditionals) {
  // On the perfect-machine class no machine failures ever occur, so
  // PHf|Mf is unobservable: the estimator must fall back to the prior and
  // keep the default [0,1] interval rather than crash or emit NaN.
  const auto m = extreme_model();
  const DemandProfile p(m.class_names(), {0.4, 0.3, 0.3});
  sim::TabularWorld world(m, p);
  sim::TrialRunner runner(world, 20000);
  stats::Rng rng(778);
  const auto estimate = sim::estimate_sequential_model(runner.run(rng));
  const auto& perfect = estimate.classes[0];
  EXPECT_EQ(perfect.counts.machine_failures, 0u);
  EXPECT_TRUE(std::isfinite(perfect.p_human_fails_given_machine_fails));
  EXPECT_EQ(perfect.human_given_failure_interval.lower, 0.0);
  EXPECT_EQ(perfect.human_given_failure_interval.upper, 1.0);
  // The fitted model is still valid and predicts the observable part.
  const auto fitted = estimate.fitted_model();
  EXPECT_NEAR(fitted.system_failure_probability(p),
              m.system_failure_probability(p), 0.01);
}

TEST(EdgeCases, PosteriorSamplerHandlesBoundaryCounts) {
  // All failures / no failures / tiny classes.
  core::ClassCounts all_fail;
  all_fail.cases = 5;
  all_fail.machine_failures = 5;
  all_fail.human_failures_given_machine_failed = 5;
  core::ClassCounts none_fail;
  none_fail.cases = 5;
  const core::PosteriorModelSampler sampler({"bad", "good"},
                                            {all_fail, none_fail});
  stats::Rng rng(779);
  const DemandProfile p({"bad", "good"}, {0.5, 0.5});
  const auto prediction = sampler.predict(p, rng, 500);
  EXPECT_GE(prediction.lower, 0.0);
  EXPECT_LE(prediction.upper, 1.0);
  EXPECT_GT(prediction.mean, 0.2);  // the bad class nearly always fails
  EXPECT_TRUE(std::isfinite(prediction.stddev));
}

TEST(EdgeCases, IntervalsAtSingleObservation) {
  for (const auto k : {0ULL, 1ULL}) {
    const auto wilson = stats::wilson_interval(k, 1);
    EXPECT_GE(wilson.lower, 0.0);
    EXPECT_LE(wilson.upper, 1.0);
    EXPECT_LT(wilson.lower, wilson.upper);
  }
}

TEST(EdgeCases, WithMachineIgnoredOnDegenerateModel) {
  const auto ignored = extreme_model().with_machine_ignored();
  const DemandProfile p(ignored.class_names(), {0.4, 0.3, 0.3});
  for (std::size_t x = 0; x < ignored.class_count(); ++x) {
    EXPECT_NEAR(ignored.importance_index(x), 0.0, 1e-12);
  }
  EXPECT_NEAR(ignored.system_failure_probability(p),
              extreme_model().system_failure_probability(p), 1e-12);
}

}  // namespace
}  // namespace hmdiv
