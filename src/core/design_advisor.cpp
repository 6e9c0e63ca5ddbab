#include "core/design_advisor.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/summary.hpp"

namespace hmdiv::core {

DesignAdvisor::DesignAdvisor(SequentialModel model, DemandProfile profile)
    : model_(std::move(model)), profile_(std::move(profile)) {
  if (!model_.compatible_with(profile_)) {
    throw std::invalid_argument(
        "DesignAdvisor: profile classes do not match model classes");
  }
}

ImprovementEffect DesignAdvisor::evaluate(
    const ImprovementCandidate& candidate) const {
  const SequentialModel improved =
      candidate.class_index == ImprovementCandidate::kAllClasses
          ? model_.with_uniform_machine_improvement(candidate.factor)
          : model_.with_machine_improvement(candidate.class_index,
                                            candidate.factor);
  ImprovementEffect out;
  out.name = candidate.name;
  out.baseline_failure = model_.system_failure_probability(profile_);
  out.improved_failure = improved.system_failure_probability(profile_);
  return out;
}

std::vector<ImprovementEffect> DesignAdvisor::rank(
    std::vector<ImprovementCandidate> candidates) const {
  std::vector<ImprovementEffect> out;
  out.reserve(candidates.size());
  for (const auto& c : candidates) out.push_back(evaluate(c));
  std::stable_sort(out.begin(), out.end(),
                   [](const ImprovementEffect& a, const ImprovementEffect& b) {
                     return a.absolute_gain() > b.absolute_gain();
                   });
  return out;
}

std::size_t DesignAdvisor::best_target_class() const {
  const std::vector<double> leverage = diagnose().class_leverage;
  return static_cast<std::size_t>(
      std::max_element(leverage.begin(), leverage.end()) - leverage.begin());
}

DesignDiagnosis DesignAdvisor::diagnose() const {
  DesignDiagnosis out;
  out.system_failure = model_.system_failure_probability(profile_);
  out.floor = model_.failure_floor(profile_);
  out.machine_addressable_fraction =
      out.system_failure > 0.0 ? 1.0 - out.floor / out.system_failure : 0.0;

  const FailureDecomposition d = model_.decompose(profile_);
  out.covariance = d.covariance;

  const std::size_t n = model_.class_count();
  std::vector<double> pmf(n);
  std::vector<double> t(n);
  out.class_leverage.resize(n);
  for (std::size_t x = 0; x < n; ++x) {
    const ClassConditional& c = model_.parameters(x);
    pmf[x] = c.p_machine_fails;
    t[x] = c.importance_index();
    out.class_leverage[x] = profile_[x] * t[x] * pmf[x];
  }
  out.correlation = stats::weighted_correlation(
      pmf, t, profile_.distribution().probabilities());
  return out;
}

}  // namespace hmdiv::core
