// Experiment X2 — the more complex programmes of the paper's Conclusions:
// two readers + CADT, less-qualified readers + CADT, UK-style double
// reading, with and without arbitration — compared on one simulated
// screened population (field mix, 0.7% prevalence) for sensitivity,
// specificity, recall rate, PPV, workload and cost.
//
// Also compares the closed-form TwoReadersWithCadtModel of the mechanistic
// world (TwoReaderWorld::ground_truth) with its exact joint failure,
// including the error of assuming the two readers fail independently
// despite sharing one machine.
#include <cmath>
#include <iostream>

#include "bench_profile.hpp"
#include "core/multi_reader.hpp"
#include "sim/two_reader_world.hpp"
#include "report/format.hpp"
#include "report/table.hpp"
#include "screening/policies.hpp"
#include "screening/population.hpp"
#include "screening/programme.hpp"
#include "sim/feature_world.hpp"

int main(int argc, char** argv) {
  using namespace hmdiv;
  using report::fixed;
  const benchutil::ProfileGuard profile(argc, argv);

  const auto world = sim::reference_feature_world();
  auto population = screening::PopulationGenerator::reference(0.007);
  const screening::CostModel costs;

  auto policies = screening::standard_policies(world.reader(), world.cadt());
  stats::Rng rng(777);
  const auto results = screening::compare_policies(population, policies,
                                                   300000, costs, rng);

  std::cout << "== X2: programme comparison (300k screened, prevalence 0.7%) "
               "==\n";
  report::Table table({"policy", "sens", "spec", "recall", "PPV", "CDR/1000",
                       "reads/case", "cost/case"});
  for (const auto& r : results) {
    table.row({r.policy_name, fixed(r.metrics.sensitivity, 3),
               fixed(r.metrics.specificity, 3),
               report::percent(r.metrics.recall_rate, 2),
               fixed(r.metrics.ppv, 3),
               fixed(r.metrics.cancer_detection_rate_per_1000, 2),
               fixed(r.metrics.readings_per_case, 2),
               fixed(r.cost_per_case, 2)});
  }
  std::cout << table << '\n';

  // Closed-form check: two readers sharing a CADT, from the ground-truth
  // parameters of the mechanistic world.
  const sim::TwoReaderWorld pair_world(world.generator(), world.cadt(),
                                       world.reader(), world.reader());
  const core::TwoReadersWithCadtModel pair = pair_world.ground_truth();
  const core::DemandProfile trial_mix({"easy", "difficult"}, {0.8, 0.2});
  const double exact = pair.system_failure_probability(trial_mix);
  const double naive =
      pair.system_failure_assuming_reader_independence(trial_mix);
  const double single =
      pair.reader_a_alone().system_failure_probability(trial_mix);
  // The joint failure with the shared *within-class* residual difficulty
  // included — stricter than the conditional-independence closed form.
  const double joint = pair_world.exact_system_failure(trial_mix);
  report::Table closed({"quantity", "P(false negative)"});
  closed.caption("Closed-form two-readers-with-CADT (cancer cases)");
  closed.row({"single reader + CADT", fixed(single, 4)});
  closed.row({"two readers + CADT, fully naive independence", fixed(naive, 4)});
  closed.row({"two readers + CADT, independent given class+machine",
              fixed(exact, 4)});
  closed.row({"two readers + CADT, exact joint (shared difficulty)",
              fixed(joint, 4)});
  closed.row({"optimism of full independence",
              report::percent((joint - naive) / joint, 1)});
  closed.row({"optimism left even conditioning on class+machine",
              report::percent((joint - exact) / joint, 1)});
  std::cout << closed << '\n';

  // Shape checks on the simulation: orderings the screening literature (and
  // the paper's discussion) expect.
  auto find = [&](const std::string& name) -> const screening::ProgrammeResult& {
    for (const auto& r : results) {
      if (r.policy_name == name) return r;
    }
    throw std::logic_error("missing policy " + name);
  };
  const auto& single_reader = find("single reader");
  const auto& with_cadt = find("reader + CADT");
  const auto& double_reading = find("double reading");
  const auto& two_with_cadt = find("two readers + CADT");
  const auto& junior_cadt = find("less-qualified reader + CADT");

  const bool cadt_helps_sensitivity =
      with_cadt.metrics.sensitivity > single_reader.metrics.sensitivity;
  const bool double_beats_single =
      double_reading.metrics.sensitivity > single_reader.metrics.sensitivity;
  const bool pair_best =
      two_with_cadt.metrics.sensitivity >= with_cadt.metrics.sensitivity &&
      two_with_cadt.metrics.sensitivity >=
          double_reading.metrics.sensitivity - 0.02;
  const bool junior_below_senior =
      junior_cadt.metrics.sensitivity < with_cadt.metrics.sensitivity;
  const bool closed_form_ok = exact > naive && exact < single &&
                              joint > exact;

  std::cout << "CADT raises single-reader sensitivity: "
            << (cadt_helps_sensitivity ? "PASS" : "FAIL") << '\n'
            << "Double reading beats single reading on sensitivity: "
            << (double_beats_single ? "PASS" : "FAIL") << '\n'
            << "Two readers + CADT is the most sensitive configuration: "
            << (pair_best ? "PASS" : "FAIL") << '\n'
            << "Less-qualified reader + CADT < qualified reader + CADT: "
            << (junior_below_senior ? "PASS" : "FAIL") << '\n'
            << "Shared machine makes reader-independence optimistic: "
            << (closed_form_ok ? "PASS" : "FAIL") << "\n\n";
  return cadt_helps_sensitivity && double_beats_single && pair_best &&
                 junior_below_senior && closed_form_ok
             ? 0
             : 1;
}
