// Tests for sim/difficulty_quadrature.hpp: the rule at its own node count
// agrees with the rule at twice that count on the reference classes and on
// extreme specs, meets exact oracles, and agrees with the Monte Carlo
// integrators it replaced.
#include "sim/difficulty_quadrature.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/feature_world.hpp"
#include "sim/ground_truth.hpp"
#include "sim/parallel_world.hpp"
#include "sim/two_reader_world.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {
namespace {

CaseClassSpec make_spec(double human_mean, double human_sigma,
                        double machine_mean, double machine_sigma,
                        double correlation) {
  CaseClassSpec spec;
  spec.name = "class";
  spec.human_difficulty_mean = human_mean;
  spec.human_difficulty_sigma = human_sigma;
  spec.machine_difficulty_mean = machine_mean;
  spec.machine_difficulty_sigma = machine_sigma;
  spec.difficulty_correlation = correlation;
  return spec;
}

TEST(DifficultyQuadrature, TwiceTheNodesAgreesOnEveryKindOfSpec) {
  const FeatureWorld world = reference_feature_world();
  const CadtModel& cadt = world.cadt();
  const ReaderModel& reader = world.reader();
  const std::vector<double> kinks = reader.misclassification_kinks();
  const double slope = std::max(cadt.config().sensitivity_slope,
                                reader.config().detection_slope);
  // ground_truth_model's integrand.
  const auto integrand = [&](double human, double machine) {
    const double p_prompt = cadt.prompt_probability(machine);
    return std::array{
        1.0 - p_prompt,
        (1.0 - p_prompt) * reader.failure_probability(human, false),
        p_prompt * reader.failure_probability(human, true)};
  };

  std::vector<CaseClassSpec> specs = {world.generator().spec(0),
                                      world.generator().spec(1)};
  for (const double rho : {-1.0, -0.99, 0.99, 1.0}) {
    specs.push_back(make_spec(1.4, 0.9, 1.1, 1.0, rho));
  }
  specs.push_back(make_spec(1.4, 0.0, 1.1, 0.0, 0.55));  // scale 0
  specs.push_back(make_spec(1.4, 1e-3, 1.1, 1e-3, 0.55));
  specs.push_back(make_spec(1.4, 0.0, 1.1, 1.0, 0.55));
  specs.push_back(make_spec(1.4, 0.9, 1.1, 0.0, 0.55));
  specs.push_back(make_spec(0.5, 4.0, 0.3, 4.0, 0.3));
  // A kink 0.3 sigma inside the +10 sigma edge, and one 0.2 sigma inside
  // the -10 sigma edge.
  specs.push_back(make_spec(kinks[1] - 9.7, 1.0, 1.1, 1.0, 0.3));
  specs.push_back(make_spec(kinks[0] + 9.8, 1.0, 1.1, 1.0, 0.3));

  for (const CaseClassSpec& spec : specs) {
    const std::size_t n = detail::difficulty_nodes_per_axis(spec, slope);
    const auto coarse =
        detail::expect_over_difficulties(spec, kinks, n, integrand);
    const auto fine =
        detail::expect_over_difficulties(spec, kinks, 2 * n, integrand);
    for (std::size_t i = 0; i < coarse.size(); ++i) {
      EXPECT_NEAR(coarse[i], fine[i], 1e-12)
          << "mu_h " << spec.human_difficulty_mean << " sigma "
          << spec.human_difficulty_sigma << '/'
          << spec.machine_difficulty_sigma << " rho "
          << spec.difficulty_correlation << " sum " << i;
    }
  }
}

TEST(DifficultyQuadrature, NodeCountFollowsSlopeAndSpread) {
  const FeatureWorld world = reference_feature_world();
  EXPECT_EQ(detail::difficulty_nodes_per_axis(world.generator().spec(0), 1.4),
            64u);
  EXPECT_EQ(detail::difficulty_nodes_per_axis(world.generator().spec(1), 1.4),
            79u);  // ceil(56 · 1.4 · 1.0)
  EXPECT_EQ(
      detail::difficulty_nodes_per_axis(make_spec(0, 4.0, 0, 2.0, 0), 1.5),
      336u);
}

TEST(DifficultyQuadrature, MeetsExactOracles) {
  // A point mass returns the integrand at the point.
  const auto [point] = expect_over_difficulties(
      make_spec(0.7, 0.0, -0.4, 0.0, 0.3), std::vector<double>{0.1}, 1.4,
      [](double human, double machine) {
        return std::array{std::exp(human) * std::cos(machine)};
      });
  EXPECT_EQ(point, std::exp(0.7) * std::cos(-0.4));

  // First and second moments, with kinks, on every shape of the axes.
  const std::vector<double> kinks = {-0.3, 0.1, 2.0, 2.0};
  for (const CaseClassSpec& spec :
       {make_spec(0.7, 1.3, -0.4, 0.6, 0.45),
        make_spec(0.7, 1.3, -0.4, 0.6, -1.0),
        make_spec(0.7, 0.0, -0.4, 0.6, 0.45),
        make_spec(0.7, 1.3, -0.4, 0.0, 0.45),
        make_spec(0.7, 4.0, -0.4, 4.0, 0.99)}) {
    const auto [h, hh, hm, m, mm] = expect_over_difficulties(
        spec, kinks, 1.4, [](double human, double machine) {
          return std::array{human, human * human, human * machine, machine,
                            machine * machine};
        });
    const double mu_h = spec.human_difficulty_mean;
    const double mu_m = spec.machine_difficulty_mean;
    const double sigma_h = spec.human_difficulty_sigma;
    const double sigma_m = spec.machine_difficulty_sigma;
    EXPECT_NEAR(h, mu_h, 1e-12);
    EXPECT_NEAR(hh, mu_h * mu_h + sigma_h * sigma_h, 1e-12);
    EXPECT_NEAR(hm,
                mu_h * mu_m + spec.difficulty_correlation * sigma_h * sigma_m,
                1e-12);
    EXPECT_NEAR(m, mu_m, 1e-12);
    EXPECT_NEAR(mm, mu_m * mu_m + sigma_m * sigma_m, 1e-12);
  }

  // E[logistic(b·Z)] = 1/2 for Z ~ N(0, 1).
  for (const double b : {0.5, 1.4, 8.0}) {
    const auto [half] = expect_over_difficulties(
        make_spec(0.0, 1.0, 0.0, 1.0, 0.0), std::vector<double>{}, b,
        [b](double human, double) {
          return std::array{1.0 / (1.0 + std::exp(-b * human))};
        });
    EXPECT_NEAR(half, 0.5, 1e-12) << b;
  }
}

TEST(DifficultyQuadrature, RejectsUnboundedInputs) {
  const auto one = [](double, double) { return std::array{1.0}; };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(expect_over_difficulties(make_spec(0, inf, 0, 1, 0),
                                        std::vector<double>{}, 1.4, one),
               std::invalid_argument);
  EXPECT_THROW(expect_over_difficulties(make_spec(0, 1, 0, 1, 0),
                                        std::vector<double>{}, -1.0, one),
               std::invalid_argument);
}

/// Monte Carlo mean of a ratio sum(A)/sum(B) over samples (B = 1 for a
/// plain mean), with its delta-method standard error.
class RatioMean {
 public:
  void add(double a, double b = 1.0) {
    ++n_;
    a_ += a;
    b_ += b;
    aa_ += a * a;
    ab_ += a * b;
    bb_ += b * b;
  }
  [[nodiscard]] double value() const { return a_ / b_; }
  [[nodiscard]] double standard_error() const {
    const double r = value();
    const double residual_variance = (aa_ - 2.0 * r * ab_ + r * r * bb_) / n_;
    return std::sqrt(residual_variance / n_) / (b_ / n_);
  }

 private:
  double n_ = 0.0, a_ = 0.0, b_ = 0.0, aa_ = 0.0, ab_ = 0.0, bb_ = 0.0;
};

void expect_within_4se(double exact, const RatioMean& estimate,
                       const char* what) {
  EXPECT_LT(std::fabs(exact - estimate.value()),
            4.0 * estimate.standard_error())
      << what << ": exact " << exact << ", Monte Carlo " << estimate.value()
      << " ± " << estimate.standard_error();
}

TEST(DifficultyQuadrature, AgreesWithTheMonteCarloItReplaced) {
  // The Monte Carlo integrators of ground_truth_model,
  // ParallelProcedureWorld::{ground_truth, exact_system_failure} and
  // TwoReaderWorld::{ground_truth, exact_system_failure}, run over one
  // shared stream of 2M difficulty draws per class on the reference
  // worlds (4M in all).
  const FeatureWorld feature = reference_feature_world();
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});
  constexpr double kAttention = 0.8;
  constexpr double kScale = 0.5;
  const ParallelProcedureWorld procedure(
      feature.generator().with_profile(profile), feature.cadt(),
      feature.reader(), kAttention, kScale);
  const CadtModel& cadt = feature.cadt();
  const ReaderModel& senior = feature.reader();
  const ReaderModel junior = senior.with_skill_factor(0.7);
  const TwoReaderWorld pair(feature.generator(), cadt, senior, junior);

  const auto truth = ground_truth_model(feature);
  const auto procedure_truth = procedure.ground_truth();
  const auto pair_truth = pair.ground_truth();

  constexpr std::size_t kSamples = 2'000'000;
  stats::Rng rng(2029);
  double procedure_failure = 0.0, procedure_variance = 0.0;
  double pair_failure = 0.0, pair_variance = 0.0;
  for (std::size_t x = 0; x < 2; ++x) {
    RatioMean mf, a_mf, a_ms, b_mf, b_ms, joint;
    RatioMean machine_miss, human_miss, misclass, failure;
    const CaseClassSpec& spec = feature.generator().spec(x);
    for (std::size_t i = 0; i < kSamples; ++i) {
      const auto [human, machine] =
          feature.generator().sample_difficulties(x, rng);
      const double p_prompt = cadt.prompt_probability(machine);
      const double a_silent = senior.failure_probability(human, false);
      const double a_prompted = senior.failure_probability(human, true);
      const double b_silent = junior.failure_probability(human, false);
      const double b_prompted = junior.failure_probability(human, true);
      mf.add(1.0 - p_prompt);
      a_mf.add((1.0 - p_prompt) * a_silent, 1.0 - p_prompt);
      a_ms.add(p_prompt * a_prompted, p_prompt);
      b_mf.add((1.0 - p_prompt) * b_silent, 1.0 - p_prompt);
      b_ms.add(p_prompt * b_prompted, p_prompt);
      joint.add(p_prompt * a_prompted * b_prompted +
                (1.0 - p_prompt) * a_silent * b_silent);

      // Procedure 1 on the shrink-scaled difficulties.
      const double scaled_human =
          spec.human_difficulty_mean +
          kScale * (human - spec.human_difficulty_mean);
      const double scaled_machine =
          spec.machine_difficulty_mean +
          kScale * (machine - spec.machine_difficulty_mean);
      const double p_unaided =
          senior.unaided_detection_probability(scaled_human);
      const double p_scaled_prompt = cadt.prompt_probability(scaled_machine);
      const double p_detected =
          p_unaided + (1.0 - p_unaided) * p_scaled_prompt * kAttention;
      const double p_misclass =
          senior.misclassification_probability(scaled_human);
      machine_miss.add(1.0 - p_scaled_prompt);
      human_miss.add(1.0 - p_unaided);
      misclass.add(p_detected * p_misclass, p_detected);
      failure.add((1.0 - p_detected) + p_detected * p_misclass);
    }
    const auto& c = truth.parameters(x);
    expect_within_4se(c.p_machine_fails, mf, "PMf");
    expect_within_4se(c.p_human_fails_given_machine_fails, a_mf, "PHf|Mf");
    expect_within_4se(c.p_human_fails_given_machine_succeeds, a_ms, "PHf|Ms");

    const auto& p = procedure_truth.parameters(x);
    expect_within_4se(p.p_machine_misses, machine_miss, "pMf");
    expect_within_4se(p.p_human_misses, human_miss, "pHmiss");
    expect_within_4se(p.p_human_misclassifies, misclass, "pHmisclass");

    const auto a = pair_truth.reader_a_alone().parameters(x);
    const auto b = pair_truth.reader_b_alone().parameters(x);
    expect_within_4se(a.p_machine_fails, mf, "pair PMf");
    expect_within_4se(a.p_human_fails_given_machine_fails, a_mf, "A|Mf");
    expect_within_4se(a.p_human_fails_given_machine_succeeds, a_ms, "A|Ms");
    expect_within_4se(b.p_human_fails_given_machine_fails, b_mf, "B|Mf");
    expect_within_4se(b.p_human_fails_given_machine_succeeds, b_ms, "B|Ms");

    procedure_failure += profile[x] * failure.value();
    procedure_variance += std::pow(profile[x] * failure.standard_error(), 2);
    pair_failure += profile[x] * joint.value();
    pair_variance += std::pow(profile[x] * joint.standard_error(), 2);
  }
  EXPECT_LT(std::fabs(procedure.exact_system_failure() - procedure_failure),
            4.0 * std::sqrt(procedure_variance));
  EXPECT_LT(std::fabs(pair.exact_system_failure(profile) - pair_failure),
            4.0 * std::sqrt(pair_variance));
}

}  // namespace
}  // namespace hmdiv::sim
