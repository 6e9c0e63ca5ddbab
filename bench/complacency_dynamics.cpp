// Experiment X3 — the paper's "indirect effects" (Section 5, items 3–4):
// improving the machine changes the *reader*, so the model parameters
// PHf|Mf / PHf|Ms drift and the Fig. 4 line bends.
//
// An adapting reader works through 40k cases with a mediocre CADT, then the
// CADT is replaced with a much better one and the reader works through
// another 40k cases. After each phase the bench snapshots the reader's
// reliance and the *analytic* ground-truth parameters at that reliance
// (integrated exactly, so the drift is not masked by estimation noise); a
// windowed empirical estimate is shown alongside.
#include <cmath>
#include <iostream>

#include "report/format.hpp"
#include "report/table.hpp"
#include "sim/estimation.hpp"
#include "sim/feature_world.hpp"
#include "sim/ground_truth.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace hmdiv;
  using report::fixed;

  // Reference world, but with a mediocre CADT and an adapting reader.
  const auto base = sim::reference_feature_world();
  sim::ReaderModel::Config config = base.reader().config();
  config.adaptation_rate = 0.01;
  config.initial_reliance = 0.15;
  config.reliance_floor = 0.05;
  config.reliance_gain = 0.6;
  sim::CadtModel::Config mediocre = base.cadt().config();
  mediocre.capability = 0.4;
  sim::FeatureWorld world(base.generator(), sim::CadtModel(mediocre),
                          sim::ReaderModel(config));

  constexpr std::uint64_t kPhaseCases = 40000;
  stats::Rng rng(888);

  struct Snapshot {
    const char* phase;
    double reliance;
    double p_mf_difficult;
    double p_hf_mf_difficult;   // analytic, at the snapshot reliance
    double p_hf_ms_difficult;
    double t_difficult;
    double estimated_t;         // windowed empirical estimate
  };
  auto snapshot = [&](const char* phase, double estimated_t) {
    const auto truth = sim::ground_truth_model(world);
    return Snapshot{phase,
                    world.reader().reliance(),
                    truth.parameters(1).p_machine_fails,
                    truth.parameters(1).p_human_fails_given_machine_fails,
                    truth.parameters(1).p_human_fails_given_machine_succeeds,
                    truth.importance_index(1),
                    estimated_t};
  };
  auto run_phase = [&]() {
    sim::TrialRunner runner(world, kPhaseCases);
    const auto data = runner.run(rng);
    return sim::estimate_sequential_model(data).classes[1].importance_index();
  };

  std::cout << "== X3: reader adaptation to machine reliability ==\n";
  const double estimated_before = run_phase();
  const Snapshot before = snapshot("mediocre CADT", estimated_before);
  world.replace_cadt(world.cadt().with_capability_factor(6.0));
  const double estimated_after = run_phase();
  const Snapshot after = snapshot("improved CADT", estimated_after);

  report::Table table({"phase", "reliance", "PMf(diff)", "PHf|Mf(diff)",
                       "PHf|Ms(diff)", "t(diff) analytic", "t(diff) est."});
  for (const Snapshot& s : {before, after}) {
    table.row({s.phase, fixed(s.reliance, 3), fixed(s.p_mf_difficult, 3),
               fixed(s.p_hf_mf_difficult, 3), fixed(s.p_hf_ms_difficult, 3),
               fixed(s.t_difficult, 3), fixed(s.estimated_t, 3)});
  }
  std::cout << table << '\n';

  // Isolate the reliance contribution from the conditioning-set shift (a
  // better CADT also prompts harder cases, which moves both conditionals):
  // same improved CADT, reader pinned at the pre-improvement reliance.
  sim::FeatureWorld counterfactual(
      world.generator(), world.cadt(),
      world.reader().with_reliance(before.reliance));
  const auto pinned = sim::ground_truth_model(counterfactual);
  const auto adapted = sim::ground_truth_model(world);
  report::Table isolate({"reader state", "PHf|Mf(diff)", "PHf|Ms(diff)",
                         "t(diff)"});
  isolate.caption(
      "Reliance effect isolated (improved CADT, same case mix)");
  isolate.row({"pinned at old reliance",
               fixed(pinned.parameters(1).p_human_fails_given_machine_fails, 3),
               fixed(pinned.parameters(1).p_human_fails_given_machine_succeeds,
                     3),
               fixed(pinned.importance_index(1), 3)});
  isolate.row(
      {"adapted reliance",
       fixed(adapted.parameters(1).p_human_fails_given_machine_fails, 3),
       fixed(adapted.parameters(1).p_human_fails_given_machine_succeeds, 3),
       fixed(adapted.importance_index(1), 3)});
  std::cout << isolate << '\n';

  std::cout
      << "Interpretation: the better machine is visibly more reliable, so\n"
         "the reader's reliance climbs; unaided vigilance on machine-silent\n"
         "cases drops, inflating PHf|Mf while the prompted response PHf|Ms\n"
         "is untouched by reliance. The Fig. 4 line's slope t(x) is NOT\n"
         "invariant under machine improvement — exactly the paper's caveat\n"
         "about extrapolating large design changes.\n\n";

  const bool reliance_grows = after.reliance > before.reliance + 0.05;
  const bool t_grows = after.t_difficult > before.t_difficult + 0.01;
  const bool reliance_inflates_mf =
      adapted.parameters(1).p_human_fails_given_machine_fails >
      pinned.parameters(1).p_human_fails_given_machine_fails + 0.005;
  const bool prompted_response_unaffected =
      std::fabs(adapted.parameters(1).p_human_fails_given_machine_succeeds -
                pinned.parameters(1).p_human_fails_given_machine_succeeds) <
      0.005;
  std::cout << "Improved machine increases reader reliance: "
            << (reliance_grows ? "PASS" : "FAIL") << '\n'
            << "Net effect inflates t(x): " << (t_grows ? "PASS" : "FAIL")
            << '\n'
            << "Isolated reliance effect inflates PHf|Mf: "
            << (reliance_inflates_mf ? "PASS" : "FAIL") << '\n'
            << "Reliance leaves the prompted response PHf|Ms unchanged: "
            << (prompted_response_unaffected ? "PASS" : "FAIL") << "\n\n";
  return reliance_grows && t_grows && reliance_inflates_mf &&
                 prompted_response_unaffected
             ? 0
             : 1;
}
