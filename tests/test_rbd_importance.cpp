// Unit tests for rbd/importance.hpp (Birnbaum importance).
#include "rbd/importance.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace hmdiv::rbd {
namespace {

TEST(Birnbaum, SeriesImportanceIsProductOfOthers) {
  const auto s = Structure::series(
      {Structure::component(0), Structure::component(1),
       Structure::component(2)});
  const std::vector<double> p{0.9, 0.8, 0.7};
  // dP/dp0 = p1·p2.
  EXPECT_NEAR(birnbaum_importance(s, p, 0), 0.8 * 0.7, 1e-12);
  EXPECT_NEAR(birnbaum_importance(s, p, 1), 0.9 * 0.7, 1e-12);
  EXPECT_NEAR(birnbaum_importance(s, p, 2), 0.9 * 0.8, 1e-12);
}

TEST(Birnbaum, ParallelImportanceIsProductOfOtherFailures) {
  const auto s = Structure::any_of(
      {Structure::component(0), Structure::component(1)});
  const std::vector<double> p{0.9, 0.8};
  EXPECT_NEAR(birnbaum_importance(s, p, 0), 1.0 - 0.8, 1e-12);
  EXPECT_NEAR(birnbaum_importance(s, p, 1), 1.0 - 0.9, 1e-12);
}

TEST(Birnbaum, WeakestComponentInSeriesIsMostImportant) {
  const auto s = Structure::series(
      {Structure::component(0), Structure::component(1)});
  const std::vector<double> p{0.99, 0.5};
  // The reliable component's importance (through the weak one) is lower.
  EXPECT_GT(birnbaum_importance(s, p, 1), birnbaum_importance(s, p, 0));
}

TEST(Birnbaum, AllImportancesAtOnce) {
  const auto s = Structure::series(
      {Structure::any_of(
           {Structure::component(0), Structure::component(1)}),
       Structure::component(2)});
  const std::vector<double> p{0.93, 0.8, 0.9};
  const auto all = birnbaum_importances(s, p);
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(all[i], birnbaum_importance(s, p, i), 1e-12) << i;
  }
}

TEST(Birnbaum, MatchesCentralDifference) {
  const auto s = Structure::series(
      {Structure::any_of(
           {Structure::component(0), Structure::component(1)}),
       Structure::component(2)});
  std::vector<double> p{0.93, 0.8, 0.9};
  const double h = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    auto up = p, down = p;
    up[i] += h;
    down[i] -= h;
    const double fd =
        (s.success_probability(up) - s.success_probability(down)) / (2 * h);
    EXPECT_NEAR(birnbaum_importance(s, p, i), fd, 1e-6) << i;
  }
}

TEST(Importance, RejectsBadIndex) {
  const auto s = Structure::component(0);
  const std::vector<double> p{0.5};
  EXPECT_THROW(birnbaum_importance(s, p, 1), std::invalid_argument);
}

TEST(Importance, HandlesSharedComponentsViaEnumeration) {
  const auto shared = Structure::any_of(
      {Structure::series({Structure::component(0), Structure::component(1)}),
       Structure::series({Structure::component(0), Structure::component(2)})});
  const std::vector<double> p{0.5, 0.6, 0.7};
  // P(works) = p0·(1 − (1−p1)(1−p2)); dP/dp0 = 1 − (1−p1)(1−p2) = 0.88.
  EXPECT_NEAR(birnbaum_importance(shared, p, 0), 0.88, 1e-12);
}

}  // namespace
}  // namespace hmdiv::rbd
