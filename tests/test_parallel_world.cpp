// Unit + integration tests for sim/parallel_world.hpp (Section 3's
// procedure-1 world and the validity conditions of Eqs. 1–3).
#include "sim/parallel_world.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sim/feature_world.hpp"

namespace hmdiv::sim {
namespace {

core::DemandProfile profile() {
  return core::DemandProfile({"easy", "difficult"}, {0.8, 0.2});
}

ParallelProcedureWorld make_world(double attention, double scale) {
  const auto base = reference_feature_world();
  return ParallelProcedureWorld(base.generator().with_profile(profile()),
                                base.cadt(), base.reader(), attention, scale);
}

TEST(ParallelWorld, ValidatesConstruction) {
  const auto base = reference_feature_world();
  EXPECT_THROW(ParallelProcedureWorld(base.generator(), base.cadt(),
                                      base.reader(), 1.5, 1.0),
               std::invalid_argument);
  EXPECT_THROW(ParallelProcedureWorld(base.generator(), base.cadt(),
                                      base.reader(), 1.0, -0.5),
               std::invalid_argument);
}

TEST(ParallelWorld, RecordInvariantsHold) {
  auto world = make_world(1.0, 1.0);
  stats::Rng rng(1);
  for (const auto& r : world.run(20000, rng)) {
    // Misclassification implies detection.
    if (r.misclassified) {
      EXPECT_TRUE(r.detected);
    }
    // System failure iff not detected or misclassified.
    EXPECT_EQ(r.system_failed, !r.detected || r.misclassified);
    // Under full attention, a prompted case is always detected.
    if (!r.machine_failed) {
      EXPECT_TRUE(r.detected);
    }
  }
}

TEST(ParallelWorld, UnaidedDetectionIsPromptBlind) {
  // pHmiss estimated from the instrumented records must not depend on the
  // machine's behaviour: compare across two very different CADTs.
  const auto base = reference_feature_world();
  ParallelProcedureWorld eager(base.generator().with_profile(profile()),
                               base.cadt().with_threshold_shift(-2.0),
                               base.reader());
  ParallelProcedureWorld strict(base.generator().with_profile(profile()),
                                base.cadt().with_threshold_shift(2.0),
                                base.reader());
  stats::Rng rng1(2), rng2(2);
  const auto e1 = estimate_parallel_model(eager.run(60000, rng1),
                                          profile().class_names());
  const auto e2 = estimate_parallel_model(strict.run(60000, rng2),
                                          profile().class_names());
  for (std::size_t x = 0; x < 2; ++x) {
    EXPECT_NEAR(e1.classes[x].p_human_misses, e2.classes[x].p_human_misses,
                0.01)
        << x;
    // The machine-miss estimates, by contrast, differ hugely.
  }
  EXPECT_GT(e2.classes[0].p_machine_misses,
            e1.classes[0].p_machine_misses + 0.2);
}

TEST(ParallelWorld, IdealRegimeMakesEq1Exact) {
  auto world = make_world(1.0, 0.0);
  const auto truth = world.ground_truth();
  const double exact = world.exact_system_failure();
  EXPECT_NEAR(truth.system_failure_probability(profile()), exact, 1e-12);

  stats::Rng sim_rng(4);
  const auto estimate = estimate_parallel_model(world.run(200000, sim_rng),
                                                profile().class_names());
  EXPECT_NEAR(estimate.fitted_model().system_failure_probability(profile()),
              estimate.observed_system_failure, 0.004);
}

TEST(ParallelWorld, InattentionMakesEq1Optimistic) {
  auto world = make_world(0.6, 0.0);
  const auto truth = world.ground_truth();
  const double exact = world.exact_system_failure();
  EXPECT_LT(truth.system_failure_probability(profile()), exact - 0.01);
}

TEST(ParallelWorld, HeterogeneityMakesEq1Optimistic) {
  auto world = make_world(1.0, 1.0);
  const auto truth = world.ground_truth();
  const double exact = world.exact_system_failure();
  EXPECT_LT(truth.system_failure_probability(profile()), exact - 0.002);
}

TEST(ParallelWorld, EstimatesConvergeToGroundTruth) {
  auto world = make_world(1.0, 1.0);
  const auto truth = world.ground_truth();
  stats::Rng sim_rng(8);
  const auto estimate = estimate_parallel_model(world.run(200000, sim_rng),
                                                profile().class_names());
  for (std::size_t x = 0; x < 2; ++x) {
    EXPECT_NEAR(estimate.classes[x].p_machine_misses,
                truth.parameters(x).p_machine_misses, 0.01)
        << x;
    EXPECT_NEAR(estimate.classes[x].p_human_misses,
                truth.parameters(x).p_human_misses, 0.01)
        << x;
    EXPECT_NEAR(estimate.classes[x].p_human_misclassifies,
                truth.parameters(x).p_human_misclassifies, 0.01)
        << x;
  }
}

TEST(ParallelWorld, EstimatorValidatesInput) {
  EXPECT_THROW(static_cast<void>(estimate_parallel_model({}, {})),
               std::invalid_argument);
  std::vector<ParallelProcedureRecord> bad(1);
  bad[0].class_index = 9;
  EXPECT_THROW(static_cast<void>(
                   estimate_parallel_model(bad, {"a", "b"})),
               std::invalid_argument);
  // A class with cases but zero detections: pHmisclass unidentifiable.
  std::vector<ParallelProcedureRecord> none_detected(4);
  for (auto& r : none_detected) {
    r.class_index = 0;
    r.detected = false;
    r.system_failed = true;
  }
  EXPECT_THROW(static_cast<void>(
                   estimate_parallel_model(none_detected, {"a"})),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::sim
