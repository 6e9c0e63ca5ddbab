// Unit tests for core/multi_reader.hpp (Conclusions: programme variants).
#include "core/multi_reader.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace hmdiv::core {
namespace {

DemandProfile profile() {
  return DemandProfile({"easy", "difficult"}, {0.8, 0.2});
}

TwoReadersWithCadtModel cadt_pair() {
  std::vector<ReaderConditional> a(2), b(2);
  a[0] = {0.18, 0.14};
  a[1] = {0.9, 0.4};
  b[0] = {0.25, 0.2};
  b[1] = {0.85, 0.5};
  return TwoReadersWithCadtModel({"easy", "difficult"}, {0.07, 0.41}, a, b);
}

TEST(TwoReadersWithCadt, ValidatesConstruction) {
  std::vector<ReaderConditional> one(1), two(2);
  EXPECT_THROW(
      TwoReadersWithCadtModel({"a", "b"}, {0.1, 0.2}, one, two),
      std::invalid_argument);
  std::vector<ReaderConditional> bad(2);
  bad[0].p_fail_given_machine_fails = 2.0;
  EXPECT_THROW(TwoReadersWithCadtModel({"a", "b"}, {0.1, 0.2}, bad, two),
               std::invalid_argument);
  EXPECT_THROW(TwoReadersWithCadtModel({"a", "b"}, {0.1, 1.2}, two, two),
               std::invalid_argument);
}

TEST(TwoReadersWithCadt, PerClassClosedForm) {
  const auto m = cadt_pair();
  // PMf·pA|Mf·pB|Mf + PMs·pA|Ms·pB|Ms.
  EXPECT_NEAR(m.system_failure_given_class(0),
              0.07 * 0.18 * 0.25 + 0.93 * 0.14 * 0.2, 1e-12);
  EXPECT_NEAR(m.system_failure_given_class(1),
              0.41 * 0.9 * 0.85 + 0.59 * 0.4 * 0.5, 1e-12);
}

TEST(TwoReadersWithCadt, BeatsEachSingleReaderWithCadt) {
  const auto m = cadt_pair();
  const auto p = profile();
  const double pair_failure = m.system_failure_probability(p);
  EXPECT_LT(pair_failure,
            m.reader_a_alone().system_failure_probability(p));
  EXPECT_LT(pair_failure,
            m.reader_b_alone().system_failure_probability(p));
}

TEST(TwoReadersWithCadt, SharedMachineMakesIndependenceOptimistic) {
  // Both readers fail together when the shared machine fails (t > 0 for
  // both), so multiplying single-reader failure rates underestimates.
  const auto m = cadt_pair();
  const auto p = profile();
  EXPECT_LT(m.system_failure_assuming_reader_independence(p),
            m.system_failure_probability(p));
}

TEST(TwoReadersWithCadt, SingleReaderSubmodelsMatchInputs) {
  const auto m = cadt_pair();
  const auto a = m.reader_a_alone();
  EXPECT_NEAR(a.parameters(1).p_human_fails_given_machine_fails, 0.9, 1e-12);
  EXPECT_NEAR(a.parameters(1).p_machine_fails, 0.41, 1e-12);
  const auto b = m.reader_b_alone();
  EXPECT_NEAR(b.parameters(0).p_human_fails_given_machine_succeeds, 0.2,
              1e-12);
}

}  // namespace
}  // namespace hmdiv::core
