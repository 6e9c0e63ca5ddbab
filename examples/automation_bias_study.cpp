// Scenario: a human-factors study of automation bias (the paper's ref. [7],
// Skitka et al.) run entirely in the mechanistic simulator: how does a
// reader's *reliance* on the prompting machine reshape the system's
// conditional failure structure?
//
// We sweep fixed reliance levels, extract the emergent {PMf, PHf|Mf,
// PHf|Ms} per class, and watch the paper's quantities respond: the floor
// PHf|Ms stays put (prompts always get attention), PHf|Mf climbs (silent
// cases get skipped), so t(x) — how much the machine's failures hurt —
// grows with reliance. Then we find the reliance level beyond which the
// CADT stops paying for itself against an unaided vigilant reader.
#include <array>
#include <iostream>

#include "report/format.hpp"
#include "report/table.hpp"
#include "sim/difficulty_quadrature.hpp"
#include "sim/feature_world.hpp"
#include "sim/ground_truth.hpp"

int main() {
  using namespace hmdiv;
  using report::fixed;

  const auto base = sim::reference_feature_world();
  const core::DemandProfile field({"easy", "difficult"}, {0.9, 0.1});

  // Unaided baseline: a vigilant reader with no CADT in the loop behaves
  // like "never prompted, zero reliance". Its failure probability on the
  // field mix is the profile-weighted sum of per-class expectations.
  const auto unaided_reader = base.reader().with_reliance(0.0);
  double unaided_failure = 0.0;
  for (std::size_t x = 0; x < field.class_count(); ++x) {
    const auto [failure] = sim::expect_over_difficulties(
        base.generator().spec(x), unaided_reader.misclassification_kinks(),
        unaided_reader.config().detection_slope,
        [&](double human_difficulty, double /*machine_difficulty*/) {
          return std::array{unaided_reader.failure_probability(
              human_difficulty, /*prompted=*/false)};
        });
    unaided_failure += field[x] * failure;
  }
  std::cout << "Unaided vigilant reader, field mix: P(miss cancer) = "
            << fixed(unaided_failure, 3) << "\n\n";

  // Study machine: a stricter operating point than the reference CADT
  // (fewer false-positive prompts, but it misses far more cancers), so the
  // cost of displaced vigilance is visible within the sweep.
  const auto study_cadt = base.cadt().with_threshold_shift(1.2);

  report::Table sweep({"reliance", "PMf(diff)", "PHf|Mf(easy)",
                       "PHf|Ms(easy)", "t(easy)", "t(diff)",
                       "system PHf (field)"});
  sweep.caption("Reliance sweep (emergent parameters and Eq. 8)");
  double crossover = -1.0;
  for (const double reliance :
       {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
    sim::FeatureWorld world(base.generator().with_profile(field), study_cadt,
                            base.reader().with_reliance(reliance));
    const auto truth = sim::ground_truth_model(world);
    const double system_failure = truth.system_failure_probability(field);
    sweep.row({fixed(reliance, 1),
               fixed(truth.parameters(1).p_machine_fails, 3),
               fixed(truth.parameters(0).p_human_fails_given_machine_fails, 3),
               fixed(truth.parameters(0).p_human_fails_given_machine_succeeds,
                     3),
               fixed(truth.importance_index(0), 3),
               fixed(truth.importance_index(1), 3),
               fixed(system_failure, 3)});
    if (crossover < 0.0 && system_failure > unaided_failure) {
      crossover = reliance;
    }
  }
  std::cout << sweep << '\n';

  if (crossover >= 0.0) {
    std::cout
        << "At reliance >= " << fixed(crossover, 1)
        << " the reader-plus-CADT system misses MORE cancers than the\n"
        << "unaided vigilant reader: the machine's help on prompted cases\n"
        << "no longer covers the vigilance it displaced. This is the\n"
        << "automation-bias failure mode the paper's Section 5 items 3-4\n"
        << "warn extrapolations about.\n";
  } else {
    std::cout << "Within this sweep the CADT always paid for itself; raise\n"
                 "the reliance ceiling to find the crossover.\n";
  }
  return 0;
}
