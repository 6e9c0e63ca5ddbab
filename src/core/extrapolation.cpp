#include "core/extrapolation.hpp"

#include <stdexcept>
#include <utility>

namespace hmdiv::core {

Extrapolator::Extrapolator(SequentialModel trial_model,
                           DemandProfile trial_profile)
    : model_(std::move(trial_model)), profile_(std::move(trial_profile)) {
  if (!model_.compatible_with(profile_)) {
    throw std::invalid_argument(
        "Extrapolator: trial profile classes do not match model classes");
  }
}

double Extrapolator::trial_failure_probability() const {
  return model_.system_failure_probability(profile_);
}

double Extrapolator::predict_for_profile(const DemandProfile& field) const {
  if (!model_.compatible_with(field)) {
    throw std::invalid_argument(
        "Extrapolator: field profile classes do not match model classes");
  }
  return model_.system_failure_probability(field);
}

SequentialModel Extrapolator::transformed_model(
    const Scenario& scenario) const {
  SequentialModel m = model_;
  if (scenario.machine_failure_factor != 1.0) {
    m = m.with_uniform_machine_improvement(scenario.machine_failure_factor);
  }
  for (const auto& [class_index, factor] :
       scenario.per_class_machine_factors) {
    m = m.with_machine_improvement(class_index, factor);
  }
  if (scenario.reader_failure_factor != 1.0) {
    m = m.with_reader_improvement(scenario.reader_failure_factor);
  }
  return m;
}

ScenarioResult Extrapolator::evaluate(const Scenario& scenario) const {
  const DemandProfile& profile =
      scenario.profile.has_value() ? *scenario.profile : profile_;
  if (!model_.compatible_with(profile)) {
    throw std::invalid_argument(
        "Extrapolator: scenario profile classes do not match model classes");
  }
  const SequentialModel m = transformed_model(scenario);
  ScenarioResult out;
  out.name = scenario.name;
  out.system_failure = m.system_failure_probability(profile);
  out.machine_failure = m.machine_failure_probability(profile);
  out.failure_floor = m.failure_floor(profile);
  out.decomposition = m.decompose(profile);
  return out;
}

std::vector<ScenarioResult> Extrapolator::evaluate_all(
    const std::vector<Scenario>& scenarios) const {
  std::vector<ScenarioResult> out;
  out.reserve(scenarios.size());
  for (const auto& s : scenarios) out.push_back(evaluate(s));
  return out;
}

std::pair<double, double> Extrapolator::predict_range_for_reader_drift(
    const DemandProfile& field, double best_factor,
    double worst_factor) const {
  if (!(best_factor >= 0.0) || !(worst_factor >= best_factor)) {
    throw std::invalid_argument(
        "Extrapolator: require 0 <= best_factor <= worst_factor");
  }
  const double lower = model_.with_reader_improvement(best_factor)
                           .system_failure_probability(field);
  const double upper = model_.with_reader_improvement(worst_factor)
                           .system_failure_probability(field);
  return {lower, upper};
}

}  // namespace hmdiv::core
