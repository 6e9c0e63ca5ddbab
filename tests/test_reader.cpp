// Unit tests for sim/reader.hpp — including the automation-bias dynamics.
#include "sim/reader.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace hmdiv::sim {
namespace {

ReaderModel::Config reference_config() {
  ReaderModel::Config c;
  c.skill = 1.2;
  c.detection_slope = 1.3;
  c.prompt_effectiveness = 0.7;
  c.initial_reliance = 0.2;
  c.misclassification_base = 0.05;
  c.misclassification_slope = 0.08;
  c.misclassification_max = 0.6;
  return c;
}

TEST(Reader, ValidatesConfig) {
  auto bad = reference_config();
  bad.detection_slope = 0.0;
  EXPECT_THROW(ReaderModel{bad}, std::invalid_argument);
  bad = reference_config();
  bad.prompt_effectiveness = 1.5;
  EXPECT_THROW(ReaderModel{bad}, std::invalid_argument);
  bad = reference_config();
  bad.initial_reliance = 1.0;
  EXPECT_THROW(ReaderModel{bad}, std::invalid_argument);
  bad = reference_config();
  bad.misclassification_max = 1.5;
  EXPECT_THROW(ReaderModel{bad}, std::invalid_argument);
  bad = reference_config();
  bad.reliance_floor = 0.6;
  bad.reliance_gain = 0.6;
  EXPECT_THROW(ReaderModel{bad}, std::invalid_argument);
  bad = reference_config();
  bad.prompt_recall_bias = -0.1;
  EXPECT_THROW(ReaderModel{bad}, std::invalid_argument);
}

TEST(Reader, DetectionDecreasesWithDifficulty) {
  const ReaderModel reader{reference_config()};
  double previous = 1.1;
  for (double d = -3.0; d <= 3.0; d += 0.5) {
    const double p = reader.detection_probability(d, false);
    EXPECT_LT(p, previous);
    previous = p;
  }
}

TEST(Reader, PromptAlwaysHelpsDetection) {
  const ReaderModel reader{reference_config()};
  for (double d = -3.0; d <= 3.0; d += 0.5) {
    EXPECT_GT(reader.detection_probability(d, true),
              reader.detection_probability(d, false))
        << d;
  }
}

TEST(Reader, RelianceSuppressesUnpromptedDetection) {
  const ReaderModel reader{reference_config()};
  const auto vigilant = reader.with_reliance(0.0);
  const auto complacent = reader.with_reliance(0.6);
  for (double d = -1.0; d <= 2.0; d += 0.5) {
    EXPECT_GT(vigilant.detection_probability(d, false),
              complacent.detection_probability(d, false));
    // Prompted detection is unaffected by reliance.
    EXPECT_NEAR(vigilant.detection_probability(d, true),
                complacent.detection_probability(d, true), 1e-12);
  }
  EXPECT_THROW(static_cast<void>(reader.with_reliance(1.0)),
               std::invalid_argument);
}

TEST(Reader, UnaidedProbabilityIgnoresRelianceAndPrompts) {
  const ReaderModel reader{reference_config()};
  const auto complacent = reader.with_reliance(0.9);
  for (double d = -1.0; d <= 2.0; d += 0.5) {
    EXPECT_NEAR(reader.unaided_detection_probability(d),
                complacent.unaided_detection_probability(d), 1e-12);
  }
  // Skill midpoint.
  EXPECT_NEAR(reader.unaided_detection_probability(1.2), 0.5, 1e-12);
}

TEST(Reader, MisclassificationClampsAtConfiguredMax) {
  const ReaderModel reader{reference_config()};
  EXPECT_NEAR(reader.misclassification_probability(0.0), 0.05, 1e-12);
  EXPECT_NEAR(reader.misclassification_probability(1.0), 0.13, 1e-12);
  EXPECT_NEAR(reader.misclassification_probability(100.0), 0.6, 1e-12);
  EXPECT_NEAR(reader.misclassification_probability(-100.0), 0.0, 1e-12);
}

TEST(Reader, MisclassificationKinksAreWhereTheClampBends) {
  const ReaderModel reader(reference_config());
  const std::vector<double> kinks = reader.misclassification_kinks();
  ASSERT_EQ(kinks.size(), 2u);
  EXPECT_DOUBLE_EQ(kinks[0], -0.05 / 0.08);
  EXPECT_DOUBLE_EQ(kinks[1], (0.6 - 0.05) / 0.08);
  EXPECT_NEAR(reader.misclassification_probability(kinks[0]), 0.0, 1e-15);
  EXPECT_NEAR(reader.misclassification_probability(kinks[1]), 0.6, 1e-15);
  auto flat = reference_config();
  flat.misclassification_slope = 0.0;
  EXPECT_TRUE(ReaderModel(flat).misclassification_kinks().empty());
}

TEST(Reader, FailureComposesDetectionAndClassification) {
  const ReaderModel reader{reference_config()};
  for (const bool prompted : {false, true}) {
    for (double d = -1.0; d <= 2.0; d += 0.75) {
      const double p_detect = reader.detection_probability(d, prompted);
      const double p_mis = reader.misclassification_probability(d);
      EXPECT_NEAR(reader.failure_probability(d, prompted),
                  (1.0 - p_detect) + p_detect * p_mis, 1e-12);
    }
  }
}

TEST(Reader, FalseRecallRisesWithSuspiciousnessAndPrompts) {
  const ReaderModel reader{reference_config()};
  EXPECT_LT(reader.false_recall_probability(-1.0, false),
            reader.false_recall_probability(1.0, false));
  for (double s = -1.0; s <= 2.0; s += 0.5) {
    EXPECT_GT(reader.false_recall_probability(s, true),
              reader.false_recall_probability(s, false));
  }
}

TEST(Reader, DecideMatchesAnalyticRates) {
  const ReaderModel reader{reference_config()};
  stats::Rng rng(81);
  Case c;
  c.human_difficulty = 0.8;
  int failures = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    failures += reader.decide(c, true, rng).recalled ? 0 : 1;
  }
  EXPECT_NEAR(failures / static_cast<double>(n),
              reader.failure_probability(0.8, true), 0.01);
}

TEST(Reader, StaticReaderDoesNotAdapt) {
  ReaderModel reader{reference_config()};  // adaptation_rate = 0
  const double before = reader.reliance();
  for (int i = 0; i < 100; ++i) reader.observe(true, true);
  EXPECT_EQ(reader.reliance(), before);
}

TEST(Reader, ReliableMachineBreedsComplacency) {
  auto config = reference_config();
  config.adaptation_rate = 0.05;
  config.reliance_floor = 0.05;
  config.reliance_gain = 0.6;
  ReaderModel reader(config);
  const double before = reader.reliance();
  // Machine prompts every case the reader verified: perceived reliability
  // climbs to 1; reliance drifts to floor + gain = 0.65.
  for (int i = 0; i < 500; ++i) reader.observe(true, true);
  EXPECT_GT(reader.reliance(), before);
  EXPECT_NEAR(reader.reliance(), 0.65, 0.02);
}

TEST(Reader, VisibleMachineMissesRestoreVigilance) {
  auto config = reference_config();
  config.adaptation_rate = 0.05;
  config.initial_reliance = 0.5;
  ReaderModel reader(config);
  // The reader keeps finding features the machine missed.
  for (int i = 0; i < 500; ++i) reader.observe(false, true);
  EXPECT_NEAR(reader.reliance(), config.reliance_floor, 0.02);
}

TEST(Reader, SilentJointMissesTeachNothing) {
  auto config = reference_config();
  config.adaptation_rate = 0.05;
  ReaderModel reader(config);
  ReaderModel control(config);
  for (int i = 0; i < 200; ++i) {
    reader.observe(false, false);  // machine silent, reader missed too
    control.observe(false, false);
  }
  // Perceived reliability unchanged => both drift identically.
  EXPECT_NEAR(reader.reliance(), control.reliance(), 1e-12);
}

TEST(Reader, SkillFactorShiftsThePsychometricCurve) {
  const ReaderModel reader{reference_config()};
  const auto junior = reader.with_skill_factor(0.5);
  for (double d = -1.0; d <= 2.0; d += 0.5) {
    EXPECT_LT(junior.unaided_detection_probability(d),
              reader.unaided_detection_probability(d));
  }
  EXPECT_THROW(static_cast<void>(reader.with_skill_factor(0.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::sim
