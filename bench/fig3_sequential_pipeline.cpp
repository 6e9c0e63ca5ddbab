// Experiment F3s — structural validation of Figure 3, the sequential
// pipeline (machine pre-processes, reader decides on case + prompts).
//
// The mechanistic FeatureWorld implements exactly that information flow.
// Ground-truth class-conditional parameters {PMf, PHf|Mf, PHf|Ms} are
// integrated exactly over the difficulty distributions; Eq. (7)/(8)
// evaluated on them must predict the end-to-end simulated failure rate of
// the pipeline — under the trial profile AND re-weighted to the field
// profile.
#include <cmath>
#include <iostream>

#include "exec/parallel.hpp"
#include "report/format.hpp"
#include "report/table.hpp"
#include "sim/estimation.hpp"
#include "sim/feature_world.hpp"
#include "sim/ground_truth.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace hmdiv;
  using report::fixed;

  auto world = sim::reference_feature_world();
  world.set_adaptation_enabled(false);
  const auto truth = sim::ground_truth_model(world);

  std::cout << "== F3s: emergent parameters of the mechanistic pipeline ==\n";
  report::Table params({"class", "PMf", "PHf|Mf", "PHf|Ms", "t(x)"});
  for (std::size_t x = 0; x < truth.class_count(); ++x) {
    const auto& c = truth.parameters(x);
    params.row({truth.class_names()[x], fixed(c.p_machine_fails, 4),
                fixed(c.p_human_fails_given_machine_fails, 4),
                fixed(c.p_human_fails_given_machine_succeeds, 4),
                fixed(truth.importance_index(x), 4)});
  }
  std::cout << params << '\n';

  // End-to-end simulation under trial and field mixes, as two pool tasks:
  // each builds its own world and draws from its own seed.
  auto simulate = [&](const core::DemandProfile& profile, std::uint64_t seed) {
    auto w = sim::reference_feature_world(profile);
    w.set_adaptation_enabled(false);
    sim::TrialRunner runner(w, 300000);
    stats::Rng rng(seed);
    return runner.run(rng);
  };
  const core::DemandProfile trial({"easy", "difficult"}, {0.8, 0.2});
  const core::DemandProfile field({"easy", "difficult"}, {0.9, 0.1});
  sim::TrialData trial_data, field_data;
  exec::parallel_for(2, 1, [&](std::size_t i) {
    if (i == 0) {
      trial_data = simulate(trial, 62);
    } else {
      field_data = simulate(field, 63);
    }
  });

  report::Table check({"profile", "Eq. (8) prediction", "simulated pipeline",
                       "|error|"});
  const double predicted_trial = truth.system_failure_probability(trial);
  const double predicted_field = truth.system_failure_probability(field);
  const double simulated_trial = trial_data.observed_failure_rate();
  const double simulated_field = field_data.observed_failure_rate();
  check.row({"Trial (0.8/0.2)", fixed(predicted_trial, 4),
             fixed(simulated_trial, 4),
             fixed(std::fabs(predicted_trial - simulated_trial), 4)});
  check.row({"Field (0.9/0.1)", fixed(predicted_field, 4),
             fixed(simulated_field, 4),
             fixed(std::fabs(predicted_field - simulated_field), 4)});
  std::cout << check << '\n';

  // The conditional structure is real: human failures must associate with
  // machine failures within classes (prompts matter).
  const auto association = sim::association_by_class(trial_data);
  report::Table assoc({"class", "chi-square (1 dof)", "p-value"});
  assoc.caption("Human-machine failure association within classes");
  for (std::size_t x = 0; x < association.size(); ++x) {
    assoc.row({trial_data.class_names[x], fixed(association[x].statistic, 1),
               report::sig(association[x].p_value, 2)});
  }
  std::cout << assoc << '\n';

  const bool prediction_ok =
      std::fabs(predicted_trial - simulated_trial) < 0.005 &&
      std::fabs(predicted_field - simulated_field) < 0.005;
  bool association_ok = true;
  for (const auto& t : association) association_ok &= t.p_value < 0.01;
  const bool shape_ok = truth.importance_index(0) > 0.0 &&
                        truth.importance_index(1) > 0.0 &&
                        truth.parameters(1).p_machine_fails >
                            truth.parameters(0).p_machine_fails;
  std::cout << "Eq. (8) predicts the simulated pipeline on both profiles: "
            << (prediction_ok ? "PASS" : "FAIL") << '\n'
            << "Prompts demonstrably change reader failure rates (t > 0, "
               "association significant): "
            << (association_ok && shape_ok ? "PASS" : "FAIL") << "\n\n";
  return prediction_ok && association_ok && shape_ok ? 0 : 1;
}
