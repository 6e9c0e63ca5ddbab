// Tests for sim/two_reader_world.hpp: the Conclusions' "two readers
// assisted by a CADT", its exact integrals checked against the closed
// forms of core/multi_reader.hpp (DifficultyQuadrature checks the
// integrals themselves against Monte Carlo).
#include "sim/two_reader_world.hpp"

#include <gtest/gtest.h>

#include "sim/feature_world.hpp"

namespace hmdiv::sim {
namespace {

TwoReaderWorld reference_pair() {
  const auto base = reference_feature_world();
  const ReaderModel senior = base.reader();
  const ReaderModel junior = base.reader().with_skill_factor(0.7);
  return TwoReaderWorld(base.generator(), base.cadt(), senior, junior);
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

}  // namespace
}  // namespace hmdiv::sim
