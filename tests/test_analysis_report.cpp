// Unit tests for core/analysis_report.hpp.
#include "core/analysis_report.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/paper_example.hpp"

namespace hmdiv::core {
namespace {

TEST(AnalysisReport, MarkdownContainsAllSections) {
  const auto text = analysis_report(paper::example_model(),
                                    paper::trial_profile(),
                                    paper::field_profile());
  EXPECT_NE(text.find("# Human-machine system analysis"), std::string::npos);
  EXPECT_NE(text.find("## Model parameters"), std::string::npos);
  EXPECT_NE(text.find("## System failure probabilities"), std::string::npos);
  EXPECT_NE(text.find("## Eq. (10) decomposition"), std::string::npos);
  EXPECT_NE(text.find("## Sensitivities"), std::string::npos);
  EXPECT_NE(text.find("## Design advice"), std::string::npos);
  // The paper's numbers appear.
  EXPECT_NE(text.find("0.235"), std::string::npos);
  EXPECT_NE(text.find("0.189"), std::string::npos);
  EXPECT_NE(text.find("best machine-improvement target: difficult"),
            std::string::npos);
}

TEST(AnalysisReport, TextModeDropsMarkdown) {
  ReportOptions options;
  options.markdown = false;
  const auto text = analysis_report(paper::example_model(),
                                    paper::trial_profile(),
                                    paper::field_profile(), options);
  EXPECT_EQ(text.find("##"), std::string::npos);
  EXPECT_NE(text.find("== Model parameters =="), std::string::npos);
}

TEST(AnalysisReport, DesignAdviceCanBeDisabled) {
  ReportOptions options;
  options.include_design_advice = false;
  const auto text = analysis_report(paper::example_model(),
                                    paper::trial_profile(),
                                    paper::field_profile(), options);
  EXPECT_EQ(text.find("## Design advice"), std::string::npos);
  EXPECT_EQ(text.find("best machine-improvement target"), std::string::npos);
  // Every other section stays.
  EXPECT_NE(text.find("## Model parameters"), std::string::npos);
  EXPECT_NE(text.find("## System failure probabilities"), std::string::npos);
  EXPECT_NE(text.find("## Eq. (10) decomposition"), std::string::npos);
  EXPECT_NE(text.find("## Sensitivities"), std::string::npos);
}

TEST(AnalysisReport, ValidatesProfiles) {
  const DemandProfile wrong({"x", "y"}, {0.5, 0.5});
  EXPECT_THROW(static_cast<void>(analysis_report(
                   paper::example_model(), wrong, paper::field_profile())),
               std::invalid_argument);
}

TEST(DualAnalysisReport, ContainsPerformanceAndTradeoff) {
  const auto text = dual_analysis_report(example_dual_model());
  EXPECT_NE(text.find("# Screening performance"), std::string::npos);
  EXPECT_NE(text.find("sensitivity"), std::string::npos);
  EXPECT_NE(text.find("## Machine re-tuning trade-off"), std::string::npos);
  EXPECT_NE(text.find("more eager"), std::string::npos);
}

TEST(DualAnalysisReport, TextMode) {
  const auto text =
      dual_analysis_report(example_dual_model(), OutcomeCosts{}, false);
  EXPECT_EQ(text.find("##"), std::string::npos);
  EXPECT_NE(text.find("SCREENING PERFORMANCE"), std::string::npos);
}

}  // namespace
}  // namespace hmdiv::core
