#include "core/sensitivity.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/workspace.hpp"

namespace hmdiv::core {

namespace {

/// Eq. (8) with class x's PMf replaced by `pmf_x` — the same per-class
/// expression and summation order as
/// SequentialModel::system_failure_probability on a perturbed copy, so the
/// copy-free path rounds identically.
double system_failure_with_pmf(const SequentialModel& model,
                               const DemandProfile& profile, std::size_t x,
                               double pmf_x) {
  double total = 0.0;
  for (std::size_t y = 0; y < model.class_count(); ++y) {
    const ClassConditional& c = model.parameters(y);
    const double pmf = y == x ? pmf_x : c.p_machine_fails;
    total += profile[y] *
             (c.p_human_fails_given_machine_succeeds * (1.0 - pmf) +
              c.p_human_fails_given_machine_fails * pmf);
  }
  return total;
}

/// The perturbed PMf values the multiplicative with_machine_improvement
/// formulation produces: clamp(p · ((p ± step)/p)) — kept verbatim so the
/// finite difference matches the historical model-copy implementation
/// bit-for-bit.
struct PerturbedPmf {
  double up;
  double down;
  double step;
};

PerturbedPmf perturb(double p, double h) {
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument(
        "finite_difference_machine_failure: PMf(x) must be interior to "
        "(0,1)");
  }
  const double step = std::min({h, p / 2.0, (1.0 - p) / 2.0});
  return PerturbedPmf{std::clamp(p * ((p + step) / p), 0.0, 1.0),
                      std::clamp(p * ((p - step) / p), 0.0, 1.0), step};
}

}  // namespace

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
  const PerturbedPmf d = perturb(p, h);
  return (system_failure_with_pmf(model, profile, x, d.up) -
          system_failure_with_pmf(model, profile, x, d.down)) /
         (2.0 * d.step);
}

std::vector<double> finite_difference_machine_failure_gradient(
    const SequentialModel& model, const DemandProfile& profile, double h) {
  if (!(h > 0.0)) {
    throw std::invalid_argument(
        "finite_difference_machine_failure: step must be > 0");
  }
  if (!model.compatible_with(profile)) {
    throw std::invalid_argument(
        "SequentialModel: profile classes do not match model classes");
  }
  const std::size_t n = model.class_count();
  std::vector<double> grad(n);
  // Stage the parameters into flat SoA scratch once; the 2·n perturbed
  // Eq. (8) sums then stream over contiguous doubles.
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> w = workspace.alloc<double>(n);
  const std::span<double> pmf = workspace.alloc<double>(n);
  const std::span<double> phf_mf = workspace.alloc<double>(n);
  const std::span<double> phf_ms = workspace.alloc<double>(n);
  for (std::size_t y = 0; y < n; ++y) {
    const ClassConditional& c = model.parameters(y);
    w[y] = profile[y];
    pmf[y] = c.p_machine_fails;
    phf_mf[y] = c.p_human_fails_given_machine_fails;
    phf_ms[y] = c.p_human_fails_given_machine_succeeds;
  }
  const auto sum_with = [&](std::size_t x, double pmf_x) {
    double total = 0.0;
    for (std::size_t y = 0; y < n; ++y) {
      const double p = y == x ? pmf_x : pmf[y];
      total += w[y] * (phf_ms[y] * (1.0 - p) + phf_mf[y] * p);
    }
    return total;
  };
  for (std::size_t x = 0; x < n; ++x) {
    const PerturbedPmf d = perturb(pmf[x], h);
    grad[x] = (sum_with(x, d.up) - sum_with(x, d.down)) / (2.0 * d.step);
  }
  return grad;
}

}  // namespace hmdiv::core
