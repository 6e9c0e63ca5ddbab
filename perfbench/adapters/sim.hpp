// sim layer adapter: the only place the benchmark calls into src/sim.
#pragma once

#include <cstdint>
#include <vector>

#include "adapters/trace.hpp"
#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "core/uncertainty.hpp"
#include "exec/config.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"

namespace perfbench::sim_layer {

/// A batched in-process trial of `cases` demands (TrialRunner::run).
inline hmdiv::sim::TrialData run_trial(hmdiv::sim::TabularWorld& world,
                                       std::uint64_t cases,
                                       std::uint64_t seed, unsigned threads) {
  trace::Span span("sim.trial");
  hmdiv::sim::TrialRunner runner(world, cases);
  return runner.run(seed, hmdiv::exec::Config{threads});
}

/// Per-class counts of a trial's records, the posterior's input. Untimed:
/// the CLI's own rebuild has no span and is part of cli.residual_ms.
inline std::vector<hmdiv::core::ClassCounts> counts_from_records(
    const hmdiv::sim::TrialData& data, std::size_t classes) {
  std::vector<hmdiv::core::ClassCounts> counts(classes);
  for (const auto& record : data.records) {
    auto& c = counts[record.class_index];
    ++c.cases;
    if (record.machine_failed) {
      ++c.machine_failures;
      if (record.human_failed) ++c.human_failures_given_machine_failed;
    } else if (record.human_failed) {
      ++c.human_failures_given_machine_succeeded;
    }
  }
  return counts;
}

/// The failure indicators the CLI bootstraps.
inline std::vector<double> failure_indicators(
    const hmdiv::sim::TrialData& data) {
  std::vector<double> failures;
  failures.reserve(data.records.size());
  for (const auto& record : data.records) {
    failures.push_back(record.human_failed ? 1.0 : 0.0);
  }
  return failures;
}

}  // namespace perfbench::sim_layer
