// Analytic sensitivity of the system failure probability (Eq. 8) to every
// model parameter.
//
// Because Eq. (8) is multilinear, the partial derivatives are exact and
// closed-form:
//
//   ∂PHf/∂PMf(x)     = p(x)·t(x)                    (Fig. 4's slope, scaled)
//   ∂PHf/∂PHf|Mf(x)  = p(x)·PMf(x)
//   ∂PHf/∂PHf|Ms(x)  = p(x)·PMs(x)
//   ∂PHf/∂p(x)       = PHf(x)        (unconstrained; for a normalised
//                                     profile the meaningful quantity is the
//                                     difference between classes)
//
// Sensitivities direct measurement effort (which parameter's uncertainty
// dominates the prediction) and design effort (what to improve). Tests
// validate each derivative against central finite differences.
#pragma once

#include <cstddef>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"

namespace hmdiv::core {

/// All partial derivatives of PHf for one class of cases.
struct ClassSensitivity {
  double d_machine_failure = 0.0;        ///< ∂PHf/∂PMf(x)
  double d_human_given_failure = 0.0;    ///< ∂PHf/∂PHf|Mf(x)
  double d_human_given_success = 0.0;    ///< ∂PHf/∂PHf|Ms(x)
  double d_profile = 0.0;                ///< ∂PHf/∂p(x) (unconstrained)
};

/// Exact gradient of Eq. (8) in every parameter.
[[nodiscard]] std::vector<ClassSensitivity> sensitivities(
    const SequentialModel& model, const DemandProfile& profile);

/// Central finite-difference check of ∂PHf/∂PMf(x); used by tests and by
/// sceptical users. `h` is the step in probability units; PMf(x) must be
/// interior to (0,1). Evaluates Eq. (8) on the two models
/// with_machine_improvement(x, (PMf ± step)/PMf).
[[nodiscard]] double finite_difference_machine_failure(
    const SequentialModel& model, const DemandProfile& profile, std::size_t x,
    double h = 1e-6);

}  // namespace hmdiv::core
