// Fitting the paper's model parameters from trial records.
//
// For each class x the estimator computes the maximum-likelihood
// proportions of {machine failure; human failure given machine failure;
// human failure given machine success} together with Wilson confidence
// intervals, mirroring how a real evaluation trial would analyse its data.
// The per-class counts are exactly the ClassCounts consumed by
// core::PosteriorModelSampler, so uncertainty propagation (core/uncertainty)
// composes directly with simulated trials.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "core/uncertainty.hpp"
#include "sim/trial.hpp"
#include "stats/hypothesis.hpp"
#include "stats/intervals.hpp"

namespace hmdiv::sim {

/// Point estimates + intervals for one class.
struct ClassEstimate {
  core::ClassCounts counts;
  double p_machine_fails = 0.0;
  double p_human_fails_given_machine_fails = 0.0;
  double p_human_fails_given_machine_succeeds = 0.0;
  stats::ProportionInterval machine_interval;
  stats::ProportionInterval human_given_failure_interval;
  stats::ProportionInterval human_given_success_interval;
  /// t(x) point estimate.
  [[nodiscard]] double importance_index() const {
    return p_human_fails_given_machine_fails -
           p_human_fails_given_machine_succeeds;
  }
};

/// Full estimation result for a trial.
struct EstimationResult {
  std::vector<std::string> class_names;
  std::vector<ClassEstimate> classes;
  /// Empirical demand profile of the trial records.
  core::DemandProfile empirical_profile;

  /// The fitted sequential model (point estimates). Classes with no
  /// machine-failure (or no machine-success) observations get the Jeffreys
  /// posterior mean for the unobservable conditional.
  [[nodiscard]] core::SequentialModel fitted_model() const;

  /// The counts in core::PosteriorModelSampler form.
  [[nodiscard]] std::vector<core::ClassCounts> counts() const;
};

/// Estimates per-class parameters from a trial's count table (e.g. a
/// TabularWorld counts trial) at `confidence` level. Throws if the sizes
/// differ, the counts are inconsistent, or any class has zero cases (the
/// trial cannot say anything about it — enlarge the trial or merge
/// classes).
[[nodiscard]] EstimationResult estimate_sequential_model(
    std::vector<std::string> class_names,
    std::span<const core::ClassCounts> counts, double confidence = 0.95);

/// Record form: folds the records into their count table and estimates
/// from that; same result as the counts form on the same table.
[[nodiscard]] EstimationResult estimate_sequential_model(
    const TrialData& data, double confidence = 0.95);

/// Per-class association between machine and human failures: chi-square
/// 2x2 independence test on (machine failed?, human failed?). Small
/// p-values falsify "the human is unaffected by the machine's output" —
/// the test the parallel-detection model of Section 3 implicitly needs.
[[nodiscard]] std::vector<stats::TestResult> association_by_class(
    const TrialData& data);

}  // namespace hmdiv::sim
