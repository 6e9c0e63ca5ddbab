// Unit tests for core/design_advisor.hpp (Section 6 design guidance).
#include "core/design_advisor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/paper_example.hpp"

namespace hmdiv::core {
namespace {

DesignAdvisor field_advisor() {
  return DesignAdvisor(paper::example_model(), paper::field_profile());
}

TEST(DesignAdvisor, ValidatesProfile) {
  const DemandProfile wrong({"x", "y"}, {0.5, 0.5});
  EXPECT_THROW(DesignAdvisor(paper::example_model(), wrong),
               std::invalid_argument);
}

TEST(DesignAdvisor, AnalyticGainEqualsExactGain) {
  // Eq. (9) is linear in PMf at fixed human response, so the first-order
  // gain p(x)·t(x)·ΔPMf(x), summed over the improved classes, is exact.
  const auto advisor = field_advisor();
  const auto& m = advisor.model();
  const auto& profile = advisor.profile();
  const auto first_order_gain = [&](std::size_t x, double factor) {
    const double pmf = m.parameters(x).p_machine_fails;
    return profile[x] * m.importance_index(x) * (pmf - pmf * factor);
  };
  for (std::size_t x = 0; x < 2; ++x) {
    ImprovementCandidate c;
    c.name = "improve class " + std::to_string(x);
    c.class_index = x;
    c.factor = paper::kImprovementFactor;
    EXPECT_NEAR(advisor.evaluate(c).absolute_gain(),
                first_order_gain(x, c.factor), 1e-12)
        << x;
  }
  ImprovementCandidate uniform;
  uniform.name = "all";
  uniform.factor = 0.5;
  EXPECT_NEAR(advisor.evaluate(uniform).absolute_gain(),
              first_order_gain(0, 0.5) + first_order_gain(1, 0.5), 1e-12);
}

TEST(DesignAdvisor, RankPutsDifficultClassFirst) {
  const auto advisor = field_advisor();
  ImprovementCandidate easy{"easy x10", paper::kEasy, 0.1};
  ImprovementCandidate difficult{"difficult x10", paper::kDifficult, 0.1};
  const auto ranked = advisor.rank({easy, difficult});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].name, "difficult x10");
  EXPECT_GT(ranked[0].absolute_gain(), ranked[1].absolute_gain());
}

TEST(DesignAdvisor, BestTargetClassIsDifficult) {
  // Leverage p(x)·t(x)·PMf(x): easy = 0.9·0.04·0.07 ≈ 0.0025,
  // difficult = 0.1·0.5·0.41 = 0.0205.
  EXPECT_EQ(field_advisor().best_target_class(), paper::kDifficult);
}

TEST(DesignAdvisor, DiagnosisQuantifiesFloorAndCovariance) {
  const auto d = field_advisor().diagnose();
  EXPECT_NEAR(d.system_failure, 0.189, 5e-4);
  EXPECT_NEAR(d.floor, 0.9 * 0.14 + 0.1 * 0.4, 1e-12);  // 0.166
  EXPECT_NEAR(d.machine_addressable_fraction, 1.0 - d.floor / d.system_failure,
              1e-12);
  EXPECT_GT(d.covariance, 0.0);
  EXPECT_GT(d.correlation, 0.9);  // two classes: near-perfect alignment
  ASSERT_EQ(d.class_leverage.size(), 2u);
  EXPECT_NEAR(d.class_leverage[paper::kEasy], 0.9 * 0.04 * 0.07, 1e-12);
  EXPECT_NEAR(d.class_leverage[paper::kDifficult], 0.1 * 0.5 * 0.41, 1e-12);
}

TEST(DesignAdvisor, ZeroFactorRealisesFullLeverage) {
  // Perfecting the machine on a class gains exactly its leverage.
  const auto advisor = field_advisor();
  const auto d = advisor.diagnose();
  for (std::size_t x = 0; x < 2; ++x) {
    ImprovementCandidate c{"perfect", x, 0.0};
    EXPECT_NEAR(advisor.evaluate(c).absolute_gain(), d.class_leverage[x],
                1e-12)
        << x;
  }
}

TEST(DesignAdvisor, UniformCandidateUsesAllClasses) {
  const auto advisor = field_advisor();
  ImprovementCandidate uniform{"uniform", ImprovementCandidate::kAllClasses,
                               0.1};
  ImprovementCandidate easy{"easy", paper::kEasy, 0.1};
  ImprovementCandidate difficult{"difficult", paper::kDifficult, 0.1};
  const double total = advisor.evaluate(uniform).absolute_gain();
  const double parts = advisor.evaluate(easy).absolute_gain() +
                       advisor.evaluate(difficult).absolute_gain();
  EXPECT_NEAR(total, parts, 1e-12);  // linearity in PMf
}

TEST(DesignAdvisor, EvaluateValidatesLikeTheModelTransforms) {
  const auto advisor = field_advisor();
  ImprovementCandidate out_of_range{"bad", 99, 0.5};
  EXPECT_THROW(static_cast<void>(advisor.evaluate(out_of_range)),
               std::invalid_argument);
  ImprovementCandidate negative{"bad", paper::kEasy, -0.5};
  EXPECT_THROW(static_cast<void>(advisor.evaluate(negative)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::core
