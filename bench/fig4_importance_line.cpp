// Experiment F4 — Figure 4: system failure probability as a function of
// machine failure probability for a class of cases, at fixed human response.
//
// The figure is a straight line with intercept PHf|Ms(x) (the floor) and
// slope t(x). We print the series for both classes of the paper example,
// verify linearity analytically, and validate three points per class by
// Monte-Carlo simulation of a world whose PMf(x) is set to the swept value.
#include <cmath>
#include <iostream>
#include <iterator>
#include <vector>

#include "core/paper_example.hpp"
#include "exec/parallel.hpp"
#include "report/format.hpp"
#include "report/table.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace hmdiv;
  using report::fixed;

  const auto model = core::paper::example_model();

  std::cout << "== F4: PHf(x) vs PMf(x) at fixed human response ==\n";
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const auto line = model.importance_line(x);
    std::cout << "class '" << model.class_names()[x]
              << "': intercept PHf|Ms = " << fixed(line.intercept, 3)
              << ", slope t(x) = " << fixed(line.slope, 3) << '\n';
  }
  std::cout << '\n';

  report::Table series({"PMf", "PHf easy (line)", "PHf difficult (line)"});
  series.caption("Figure 4 series (plot these columns)");
  for (double pmf = 0.0; pmf <= 1.0 + 1e-9; pmf += 0.1) {
    series.row({fixed(pmf, 1),
                fixed(model.importance_line(0).at(pmf), 3),
                fixed(model.importance_line(1).at(pmf), 3)});
  }
  std::cout << series << '\n';

  // Monte-Carlo validation: build single-class worlds at swept PMf values.
  // Point i = class·3 + j is one pool task on its own world and seed
  // 100 + i; the table is then filled in point order.
  constexpr double kSweptPmf[] = {0.1, 0.5, 0.9};
  constexpr std::size_t kPerClass = std::size(kSweptPmf);
  const std::size_t points = model.class_count() * kPerClass;
  std::vector<double> simulated_at(points);
  exec::parallel_for(points, 1, [&](std::size_t i) {
    core::ClassConditional c = model.parameters(i / kPerClass);
    c.p_machine_fails = kSweptPmf[i % kPerClass];
    const core::SequentialModel swept({"only"}, {c});
    const core::DemandProfile degenerate({"only"}, {1.0});
    sim::TabularWorld world(swept, degenerate);
    sim::TrialRunner runner(world, 200000);
    stats::Rng rng(100 + i);
    simulated_at[i] = runner.run(rng).observed_failure_rate();
  });
  bool simulation_ok = true;
  report::Table validation(
      {"class", "PMf", "line PHf", "simulated PHf", "|error|"});
  validation.caption("Simulation check (200k cases per point)");
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    for (std::size_t j = 0; j < kPerClass; ++j) {
      const double pmf = kSweptPmf[j];
      const double simulated = simulated_at[x * kPerClass + j];
      const double predicted = model.importance_line(x).at(pmf);
      validation.row({model.class_names()[x], fixed(pmf, 1),
                      fixed(predicted, 4), fixed(simulated, 4),
                      fixed(std::fabs(simulated - predicted), 4)});
      simulation_ok =
          simulation_ok && std::fabs(simulated - predicted) < 0.005;
    }
  }
  std::cout << validation << '\n';

  // Structural checks: linearity and the floor.
  bool structure_ok = true;
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const auto line = model.importance_line(x);
    const auto& p = model.parameters(x);
    structure_ok = structure_ok &&
                   std::fabs(line.at(0.0) -
                             p.p_human_fails_given_machine_succeeds) < 1e-12 &&
                   std::fabs(line.at(1.0) -
                             p.p_human_fails_given_machine_fails) < 1e-12;
    // Linearity: midpoint equals average of endpoints.
    structure_ok = structure_ok &&
                   std::fabs(line.at(0.5) -
                             0.5 * (line.at(0.0) + line.at(1.0))) < 1e-12;
  }
  std::cout << "Line passes through (0, PHf|Ms) and (1, PHf|Mf), exactly "
               "linear: "
            << (structure_ok ? "PASS" : "FAIL") << '\n'
            << "Simulated points land on the line: "
            << (simulation_ok ? "PASS" : "FAIL") << "\n\n";
  return structure_ok && simulation_ok ? 0 : 1;
}
