#include "core/sensitivity.hpp"

#include <algorithm>
#include <stdexcept>

namespace hmdiv::core {

std::vector<ClassSensitivity> sensitivities(const SequentialModel& model,
                                            const DemandProfile& profile) {
  if (!model.compatible_with(profile)) {
    throw std::invalid_argument(
        "sensitivities: profile classes do not match model classes");
  }
  std::vector<ClassSensitivity> out(model.class_count());
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const ClassConditional& c = model.parameters(x);
    out[x].d_machine_failure = profile[x] * c.importance_index();
    out[x].d_human_given_failure = profile[x] * c.p_machine_fails;
    out[x].d_human_given_success = profile[x] * c.p_machine_succeeds();
    out[x].d_profile = c.system_failure();
  }
  return out;
}

double finite_difference_machine_failure(const SequentialModel& model,
                                         const DemandProfile& profile,
                                         std::size_t x, double h) {
  if (!(h > 0.0)) {
    throw std::invalid_argument(
        "finite_difference_machine_failure: step must be > 0");
  }
  if (!model.compatible_with(profile)) {
    throw std::invalid_argument(
        "SequentialModel: profile classes do not match model classes");
  }
  const double p = model.parameters(x).p_machine_fails;
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument(
        "finite_difference_machine_failure: PMf(x) must be interior to "
        "(0,1)");
  }
  const double step = std::min({h, p / 2.0, (1.0 - p) / 2.0});
  const auto failure_at = [&](double pmf) {
    return model.with_machine_improvement(x, pmf / p)
        .system_failure_probability(profile);
  };
  return (failure_at(p + step) - failure_at(p - step)) / (2.0 * step);
}

}  // namespace hmdiv::core
