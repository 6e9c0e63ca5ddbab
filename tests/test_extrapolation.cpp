// Unit tests for core/extrapolation.hpp (Section 5 machinery).
#include "core/extrapolation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/paper_example.hpp"

namespace hmdiv::core {
namespace {

Extrapolator paper_extrapolator() {
  return Extrapolator(paper::example_model(), paper::trial_profile());
}

TEST(Extrapolator, ValidatesProfileClasses) {
  const DemandProfile wrong({"x", "y"}, {0.5, 0.5});
  EXPECT_THROW(Extrapolator(paper::example_model(), wrong),
               std::invalid_argument);
  const auto e = paper_extrapolator();
  EXPECT_THROW(static_cast<void>(e.predict_for_profile(wrong)),
               std::invalid_argument);
}

TEST(Extrapolator, TrialAndFieldMatchPaper) {
  const auto e = paper_extrapolator();
  EXPECT_NEAR(e.trial_failure_probability(), 0.235, 5e-4);
  EXPECT_NEAR(e.predict_for_profile(paper::field_profile()), 0.189, 5e-4);
}

TEST(Extrapolator, ScenarioDefaultsToTrialProfile) {
  const auto e = paper_extrapolator();
  Scenario s;
  s.name = "as-trialled";
  const auto r = e.evaluate(s);
  EXPECT_EQ(r.name, "as-trialled");
  EXPECT_NEAR(r.system_failure, e.trial_failure_probability(), 1e-12);
}

TEST(Extrapolator, ScenarioAppliesProfileAndMachineFactors) {
  const auto e = paper_extrapolator();
  Scenario s;
  s.name = "field + improved difficult";
  s.profile = paper::field_profile();
  s.per_class_machine_factors = {{paper::kDifficult, 0.1}};
  const auto r = e.evaluate(s);
  EXPECT_NEAR(r.system_failure, 0.171, 5e-4);  // paper's value
  EXPECT_LT(r.machine_failure,
            e.trial_model().machine_failure_probability(
                paper::field_profile()));
}

TEST(Extrapolator, ReaderFactorScalesFailure) {
  const auto e = paper_extrapolator();
  Scenario s;
  s.name = "better readers";
  s.reader_failure_factor = 0.5;
  const auto r = e.evaluate(s);
  EXPECT_NEAR(r.system_failure, 0.5 * e.trial_failure_probability(), 1e-12);
}

TEST(Extrapolator, UniformMachineFactorMovesTowardFloor) {
  const auto e = paper_extrapolator();
  Scenario s;
  s.name = "much better machine";
  s.machine_failure_factor = 0.01;
  const auto r = e.evaluate(s);
  const double floor =
      e.trial_model().failure_floor(paper::trial_profile());
  EXPECT_GT(r.system_failure, floor);
  EXPECT_LT(r.system_failure, e.trial_failure_probability());
  EXPECT_NEAR(r.failure_floor, floor, 1e-12);
}

TEST(Extrapolator, EvaluateAllPreservesOrder) {
  const auto e = paper_extrapolator();
  Scenario a;
  a.name = "a";
  Scenario b;
  b.name = "b";
  b.machine_failure_factor = 0.1;
  const auto results = e.evaluate_all({a, b});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "a");
  EXPECT_EQ(results[1].name, "b");
  EXPECT_GT(results[0].system_failure, results[1].system_failure);
}

TEST(Extrapolator, ReaderDriftRangeIsOrderedAndBracketsNominal) {
  const auto e = paper_extrapolator();
  const auto field = paper::field_profile();
  const auto [lo, hi] = e.predict_range_for_reader_drift(field, 0.8, 1.3);
  const double nominal = e.predict_for_profile(field);
  EXPECT_LT(lo, nominal);
  EXPECT_GT(hi, nominal);
  EXPECT_THROW(static_cast<void>(e.predict_range_for_reader_drift(
                   field, 1.3, 0.8)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::core
