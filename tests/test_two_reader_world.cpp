// Integration tests for sim/two_reader_world.hpp: the Conclusions' "two
// readers assisted by a CADT", simulated and checked against the closed
// forms of core/multi_reader.hpp.
#include "sim/two_reader_world.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/feature_world.hpp"

namespace hmdiv::sim {
namespace {

TwoReaderWorld reference_pair() {
  const auto base = reference_feature_world();
  const ReaderModel senior = base.reader();
  const ReaderModel junior = base.reader().with_skill_factor(0.7);
  return TwoReaderWorld(base.generator(), base.cadt(), senior, junior);
}

TEST(TwoReaderWorld, RecordsAreWellFormed) {
  auto world = reference_pair();
  stats::Rng rng(91);
  const auto records = world.run(5000, rng);
  EXPECT_EQ(records.size(), 5000u);
  for (const auto& r : records) {
    EXPECT_LT(r.class_index, 2u);
    EXPECT_EQ(r.system_failed(), r.reader_a_failed && r.reader_b_failed);
  }
  EXPECT_THROW(static_cast<void>(world.run(0, rng)), std::invalid_argument);
}

TEST(TwoReaderWorld, ExactJointPredictsSimulatedSystemFailure) {
  auto world = reference_pair();
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});
  const double exact = world.exact_system_failure(profile);

  stats::Rng sim_rng(93);
  const auto records = world.run(250000, sim_rng);
  const auto estimate =
      estimate_two_reader_model(records, {"easy", "difficult"});
  EXPECT_NEAR(estimate.observed_system_failure, exact, 0.004);
}

TEST(TwoReaderWorld, ConditionalIndependenceModelUnderestimates) {
  // The paper-formalism model (readers independent given class + machine
  // outcome) misses the correlation induced by the shared *within-class*
  // residual difficulty: it must under-predict the exact joint failure.
  // This is the within-class analogue of the Eq. (3) covariance — the
  // repository's demonstration that class granularity matters (footnote 1).
  auto world = reference_pair();
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});
  const auto conditional_independence = world.ground_truth();
  const double exact = world.exact_system_failure(profile);
  const double modelled =
      conditional_independence.system_failure_probability(profile);
  EXPECT_LT(modelled, exact);
  // The gap is material (several % relative), not numerical noise.
  EXPECT_GT(exact - modelled, 0.002);
}

TEST(TwoReaderWorld, EstimationRecoversGroundTruth) {
  auto world = reference_pair();
  const auto truth = world.ground_truth();
  stats::Rng sim_rng(95);
  const auto records = world.run(200000, sim_rng);
  const auto estimate =
      estimate_two_reader_model(records, {"easy", "difficult"});
  const auto fitted = estimate.fitted_model();
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});
  // The *parameters* (per-reader conditionals) are estimable from records;
  // the fitted conditional-independence model agrees with the analytic one.
  EXPECT_NEAR(fitted.system_failure_probability(profile),
              truth.system_failure_probability(profile), 0.01);
  for (std::size_t x = 0; x < 2; ++x) {
    EXPECT_NEAR(estimate.p_machine_fails[x],
                truth.reader_a_alone().parameters(x).p_machine_fails, 0.01)
        << x;
  }
}

TEST(TwoReaderWorld, SharedMachineCorrelatesReaders) {
  // The closed form's key claim: multiplying single-reader failure rates
  // underestimates the pair's failure rate, because both readers see the
  // same machine outcome (and the same case difficulty).
  auto world = reference_pair();
  const auto truth = world.ground_truth();
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});
  EXPECT_LT(truth.system_failure_assuming_reader_independence(profile),
            truth.system_failure_probability(profile));
}

TEST(TwoReaderWorld, SecondReaderAlwaysHelps) {
  auto world = reference_pair();
  const auto truth = world.ground_truth();
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});
  const double pair_failure = truth.system_failure_probability(profile);
  EXPECT_LT(pair_failure,
            truth.reader_a_alone().system_failure_probability(profile));
  EXPECT_LT(pair_failure,
            truth.reader_b_alone().system_failure_probability(profile));
}

TEST(TwoReaderWorld, EstimatorValidatesInput) {
  EXPECT_THROW(static_cast<void>(estimate_two_reader_model({}, {})),
               std::invalid_argument);
  std::vector<TwoReaderRecord> records(1);
  records[0].class_index = 5;
  EXPECT_THROW(static_cast<void>(
                   estimate_two_reader_model(records, {"a", "b"})),
               std::invalid_argument);
  std::vector<TwoReaderRecord> one_class(3);
  EXPECT_THROW(static_cast<void>(
                   estimate_two_reader_model(one_class, {"a", "b"})),
               std::invalid_argument);  // class "b" has no cases
}

}  // namespace
}  // namespace hmdiv::sim
