// Trial-to-field extrapolation (Section 5).
//
// Parameters {PMf, PHf|Mf, PHf|Ms} per class are estimated in a controlled
// trial whose case mix is *enriched* (many more cancers / difficult cases
// than the field). Eq. (8) re-weights the class-conditional parameters by
// the field demand profile. The Extrapolator also models the paper's list
// of *direct* effects (items 1–4 of Section 5): profile change, reader
// ability ranges, reader adaptation, machine change — each as an explicit
// scenario transform, so an analyst can combine them and read off the
// predicted range of system failure probabilities.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"

namespace hmdiv::core {

/// One named extrapolation scenario: optional transforms applied to the
/// trial-estimated model before evaluating under the target profile.
struct Scenario {
  std::string name;
  /// Target demand profile (item 1). If absent, the trial profile is used.
  std::optional<DemandProfile> profile;
  /// Multiplies both human conditional failure probabilities (item 2/3):
  /// <1 = better readers (training, vigilance), >1 = worse (complacency,
  /// fatigue). 1 = unchanged.
  double reader_failure_factor = 1.0;
  /// Multiplies PMf(x) uniformly (item 4): <1 = improved machine.
  double machine_failure_factor = 1.0;
  /// Per-class machine factors; overrides machine_failure_factor per entry
  /// (class index, factor).
  std::vector<std::pair<std::size_t, double>> per_class_machine_factors;
};

/// Result of evaluating a scenario.
struct ScenarioResult {
  std::string name;
  double system_failure = 0.0;
  double machine_failure = 0.0;
  double failure_floor = 0.0;
  FailureDecomposition decomposition;
};

/// Extrapolates a trial-estimated model to new environments.
class Extrapolator {
 public:
  /// `trial_model` and `trial_profile` as estimated/used in the trial.
  Extrapolator(SequentialModel trial_model, DemandProfile trial_profile);

  [[nodiscard]] const SequentialModel& trial_model() const { return model_; }
  [[nodiscard]] const DemandProfile& trial_profile() const { return profile_; }

  /// System failure probability as observed in the trial environment.
  [[nodiscard]] double trial_failure_probability() const;

  /// Eq. (8) under a different profile, no other change.
  [[nodiscard]] double predict_for_profile(const DemandProfile& field) const;

  /// Applies the scenario transforms and evaluates.
  [[nodiscard]] ScenarioResult evaluate(const Scenario& scenario) const;

  /// Evaluates a batch of scenarios (convenience for benches/examples).
  [[nodiscard]] std::vector<ScenarioResult> evaluate_all(
      const std::vector<Scenario>& scenarios) const;

  /// Bounds the prediction when reader behaviour may drift within
  /// [worst_factor, best_factor] (e.g. from the literature on automation
  /// bias): returns {lower, upper} system failure under `field`.
  [[nodiscard]] std::pair<double, double> predict_range_for_reader_drift(
      const DemandProfile& field, double best_factor,
      double worst_factor) const;

 private:
  [[nodiscard]] SequentialModel transformed_model(
      const Scenario& scenario) const;

  SequentialModel model_;
  DemandProfile profile_;
};

}  // namespace hmdiv::core
