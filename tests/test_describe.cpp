// Unit tests for core/describe.hpp (table rendering of models/results) and
// the stats quantile helpers added for the uncertainty layer.
#include "core/describe.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/paper_example.hpp"
#include "stats/summary.hpp"

namespace hmdiv::core {
namespace {

TEST(Describe, ParameterTableMatchesPaperLayout) {
  const auto table = parameter_table(paper::example_model(),
                                     paper::trial_profile(),
                                     paper::field_profile());
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.column_count(), 7u);
  const std::string text = table.to_text();
  EXPECT_NE(text.find("easy"), std::string::npos);
  EXPECT_NE(text.find("difficult"), std::string::npos);
  EXPECT_NE(text.find("0.07"), std::string::npos);
  EXPECT_NE(text.find("0.90"), std::string::npos);  // PHf|Mf difficult
}

TEST(Describe, FailureTableContainsPaperNumbers) {
  const auto table = failure_table(paper::example_model(),
                                   paper::trial_profile(),
                                   paper::field_profile());
  const std::string text = table.to_text();
  EXPECT_NE(text.find("0.143"), std::string::npos);
  EXPECT_NE(text.find("0.605"), std::string::npos);
  EXPECT_NE(text.find("0.235"), std::string::npos);
  EXPECT_NE(text.find("0.189"), std::string::npos);
}

TEST(Describe, ImprovementTableShowsGains) {
  const DesignAdvisor advisor(paper::example_model(), paper::field_profile());
  const auto ranked = advisor.rank(
      {ImprovementCandidate{"difficult x10", paper::kDifficult, 0.1}});
  const auto table = improvement_table(ranked);
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NE(table.to_text().find("difficult x10"), std::string::npos);
}

TEST(Describe, RejectsMismatchedProfiles) {
  const DemandProfile wrong({"x", "y"}, {0.5, 0.5});
  EXPECT_THROW(static_cast<void>(parameter_table(
                   paper::example_model(), wrong, paper::field_profile())),
               std::invalid_argument);
}

TEST(Quantiles, SortedQuantileInterpolates) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(stats::sorted_quantile(sorted, 0.0), 1.0);
  EXPECT_EQ(stats::sorted_quantile(sorted, 1.0), 4.0);
  EXPECT_NEAR(stats::sorted_quantile(sorted, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(stats::sorted_quantile(sorted, 1.0 / 3.0), 2.0, 1e-12);
  const std::vector<double> empty;
  EXPECT_THROW(static_cast<void>(stats::sorted_quantile(empty, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(stats::sorted_quantile(sorted, 1.5)),
               std::invalid_argument);
}

TEST(Quantiles, QuantilesSortsACopy) {
  const std::vector<double> values{3.0, 1.0, 4.0, 2.0};
  const std::vector<double> qs{0.0, 0.5, 1.0};
  const auto out = stats::quantiles(values, qs);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_NEAR(out[1], 2.5, 1e-12);
  EXPECT_EQ(out[2], 4.0);
  // Input untouched.
  EXPECT_EQ(values[0], 3.0);
}

}  // namespace
}  // namespace hmdiv::core
