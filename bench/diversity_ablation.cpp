// Experiment X6 — ablation of the diversity knob (Section 2.2): "An
// algorithm which were especially good at detecting those cancers that are
// most difficult for readers to detect could be very useful, even if it
// were much less good on most other cancers."
//
// The mechanistic world's per-class human/machine difficulty correlation is
// swept from strongly anti-correlated (machine strong exactly where the
// human is weak: engineered diversity) to strongly correlated (shared
// weakness). The machine's *marginal* failure probability is constant
// across the sweep — only the alignment changes — yet the system failure
// probability falls monotonically as diversity increases.
#include <iostream>

#include "report/format.hpp"
#include "report/table.hpp"
#include "sim/feature_world.hpp"
#include "sim/ground_truth.hpp"

int main() {
  using namespace hmdiv;
  using report::fixed;

  const auto base = sim::reference_feature_world();
  const core::DemandProfile profile({"easy", "difficult"}, {0.8, 0.2});

  std::cout << "== X6: human-machine difficulty correlation sweep ==\n";
  report::Table table({"correlation", "PMf (marginal)", "PHf|Mf(diff)",
                       "PHf|Ms(diff)", "t(diff)", "system PHf"});
  std::vector<double> failures;
  std::vector<double> machine_failures;
  for (const double rho : {-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9}) {
    // Same marginal difficulty distributions; only the alignment changes.
    auto generator = base.generator();
    std::vector<sim::CaseClassSpec> specs;
    for (std::size_t x = 0; x < generator.class_count(); ++x) {
      sim::CaseClassSpec spec = generator.spec(x);
      spec.difficulty_correlation = rho;
      specs.push_back(spec);
    }
    sim::FeatureWorld world(sim::CaseGenerator(specs, profile), base.cadt(),
                            base.reader());
    world.set_adaptation_enabled(false);
    const auto truth = sim::ground_truth_model(world);
    const double system_failure = truth.system_failure_probability(profile);
    const double machine_failure =
        truth.machine_failure_probability(profile);
    table.row({fixed(rho, 1), fixed(machine_failure, 4),
               fixed(truth.parameters(1).p_human_fails_given_machine_fails, 3),
               fixed(truth.parameters(1).p_human_fails_given_machine_succeeds,
                     3),
               fixed(truth.importance_index(1), 3),
               fixed(system_failure, 4)});
    failures.push_back(system_failure);
    machine_failures.push_back(machine_failure);
  }
  std::cout << table << '\n';

  std::cout
      << "Reading: with anti-correlated difficulties the machine prompts\n"
         "exactly the cases the reader would miss, so machine failures\n"
         "cluster on cases the reader handles anyway (low PHf|Mf) — cheap\n"
         "failures. With correlated difficulties the same *number* of\n"
         "machine failures lands on the reader's blind spots — expensive\n"
         "failures. Diversity is worth buying even at zero change in the\n"
         "machine's own failure rate.\n\n";

  bool monotone = true;
  for (std::size_t i = 1; i < failures.size(); ++i) {
    monotone = monotone && failures[i] > failures[i - 1];
  }
  // The machine's marginal failure probability is flat: the sweep changes
  // alignment, not competence.
  double machine_min = machine_failures.front(), machine_max = machine_min;
  for (const double m : machine_failures) {
    machine_min = std::min(machine_min, m);
    machine_max = std::max(machine_max, m);
  }
  const bool machine_flat = machine_max - machine_min < 0.01;
  const double swing = failures.back() - failures.front();
  const bool swing_visible = swing > 0.005;
  std::cout << "System failure rises monotonically with shared difficulty: "
            << (monotone ? "PASS" : "FAIL") << '\n'
            << "Machine marginal failure flat across the sweep (delta "
            << fixed(machine_max - machine_min, 4)
            << "): " << (machine_flat ? "PASS" : "FAIL") << '\n'
            << "Total system-failure swing attributable to alignment alone: "
            << fixed(swing, 4)
            << " (> 0.005): " << (swing_visible ? "PASS" : "FAIL") << "\n\n";
  return monotone && machine_flat && swing_visible ? 0 : 1;
}
