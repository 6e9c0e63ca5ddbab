#include "core/trial_design.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "exec/parallel.hpp"
#include "stats/special.hpp"

namespace hmdiv::core {

std::vector<double> variance_coefficients(const SequentialModel& model_guess,
                                          const DemandProfile& field) {
  if (!model_guess.compatible_with(field)) {
    throw std::invalid_argument(
        "variance_coefficients: field classes do not match model");
  }
  std::vector<double> out(model_guess.class_count());
  for (std::size_t x = 0; x < model_guess.class_count(); ++x) {
    const ClassConditional& c = model_guess.parameters(x);
    const double p_mf = c.p_machine_fails;
    const double p_ms = c.p_machine_succeeds();
    const double q1 = c.p_human_fails_given_machine_fails;
    const double q2 = c.p_human_fails_given_machine_succeeds;
    const double t = c.importance_index();
    const double pf = field[x];
    // Conditional-parameter terms vanish when the conditioning event never
    // happens (their expected observation counts scale the same way).
    const double q1_term = p_mf > 0.0 ? p_mf * q1 * (1.0 - q1) : 0.0;
    const double q2_term = p_ms > 0.0 ? p_ms * q2 * (1.0 - q2) : 0.0;
    out[x] = pf * pf *
             (t * t * p_mf * (1.0 - p_mf) + q1_term + q2_term);
  }
  return out;
}

double prediction_variance(const SequentialModel& model_guess,
                           const DemandProfile& field,
                           const std::vector<double>& cases) {
  const auto coefficients = variance_coefficients(model_guess, field);
  if (cases.size() != coefficients.size()) {
    throw std::invalid_argument("prediction_variance: allocation size");
  }
  double total = 0.0;
  for (std::size_t x = 0; x < cases.size(); ++x) {
    if (!(cases[x] > 0.0)) {
      throw std::invalid_argument(
          "prediction_variance: every class needs > 0 cases");
    }
    total += coefficients[x] / cases[x];
  }
  return total;
}

namespace {

TrialDesign design_from_cases(const SequentialModel& model_guess,
                              const DemandProfile& field,
                              std::vector<double> cases) {
  const double variance = prediction_variance(model_guess, field, cases);
  DemandProfile trial_profile =
      DemandProfile::from_weights(model_guess.class_names(), cases);
  return TrialDesign{std::move(cases), std::move(trial_profile),
                     std::sqrt(variance)};
}

}  // namespace

TrialDesign optimal_allocation(const SequentialModel& model_guess,
                               const DemandProfile& field,
                               double total_cases) {
  if (!(total_cases >= static_cast<double>(model_guess.class_count()))) {
    throw std::invalid_argument(
        "optimal_allocation: need at least one case per class");
  }
  const auto coefficients = variance_coefficients(model_guess, field);
  double sqrt_sum = 0.0;
  for (const double c : coefficients) sqrt_sum += std::sqrt(c);
  std::vector<double> cases(coefficients.size());
  if (sqrt_sum <= 0.0) {
    // Degenerate: nothing is uncertain; spread evenly.
    for (double& n : cases) {
      n = total_cases / static_cast<double>(cases.size());
    }
    return design_from_cases(model_guess, field, std::move(cases));
  }
  // Neyman allocation with a one-case floor per class.
  const double floor_total = static_cast<double>(cases.size());
  const double allocatable = total_cases - floor_total;
  for (std::size_t x = 0; x < cases.size(); ++x) {
    cases[x] = 1.0 + allocatable * std::sqrt(coefficients[x]) / sqrt_sum;
  }
  return design_from_cases(model_guess, field, std::move(cases));
}

std::uint64_t cases_for_importance_halfwidth(const ClassConditional& guess,
                                             double halfwidth,
                                             double confidence) {
  if (!(halfwidth > 0.0 && halfwidth < 1.0)) {
    throw std::invalid_argument(
        "cases_for_importance_halfwidth: halfwidth outside (0,1)");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument(
        "cases_for_importance_halfwidth: confidence outside (0,1)");
  }
  const double p_mf = guess.p_machine_fails;
  const double p_ms = guess.p_machine_succeeds();
  if (!(p_mf > 0.0 && p_ms > 0.0)) {
    throw std::invalid_argument(
        "cases_for_importance_halfwidth: t(x) is unidentifiable when the "
        "machine always fails or always succeeds");
  }
  const double q1 = guess.p_human_fails_given_machine_fails;
  const double q2 = guess.p_human_fails_given_machine_succeeds;
  // Conservative planning floor on the Bernoulli spreads.
  const double s1 = std::max(q1 * (1.0 - q1), 1e-4);
  const double s2 = std::max(q2 * (1.0 - q2), 1e-4);
  const double z = stats::normal_quantile(0.5 + confidence / 2.0);
  const double per_case_variance = s1 / p_mf + s2 / p_ms;
  return static_cast<std::uint64_t>(
      std::ceil(z * z * per_case_variance / (halfwidth * halfwidth)));
}

std::vector<TrialDesign> design_curve(const SequentialModel& model_guess,
                                      const DemandProfile& field,
                                      const std::vector<double>& budgets,
                                      const exec::Config& config) {
  // TrialDesign is not default-constructible (DemandProfile has no empty
  // state), so fill optional slots and unwrap in order.
  std::vector<std::optional<TrialDesign>> slots(budgets.size());
  exec::parallel_for(
      budgets.size(), /*grain=*/16,
      [&](std::size_t i) {
        slots[i] = optimal_allocation(model_guess, field, budgets[i]);
      },
      config);
  std::vector<TrialDesign> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

TrialDesign allocation_for_profile(const SequentialModel& model_guess,
                                   const DemandProfile& field,
                                   const DemandProfile& trial_profile,
                                   double total_cases) {
  if (!model_guess.compatible_with(trial_profile)) {
    throw std::invalid_argument(
        "allocation_for_profile: trial profile classes do not match model");
  }
  if (!(total_cases > 0.0)) {
    throw std::invalid_argument("allocation_for_profile: total_cases <= 0");
  }
  std::vector<double> cases(model_guess.class_count());
  for (std::size_t x = 0; x < cases.size(); ++x) {
    cases[x] = std::max(1.0, total_cases * trial_profile[x]);
  }
  return design_from_cases(model_guess, field, std::move(cases));
}

}  // namespace hmdiv::core
