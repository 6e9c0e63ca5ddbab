// Designing the controlled trial (Section 1's enrichment problem, made
// quantitative).
//
// The paper notes that trial case sets are enriched ("a much higher
// proportion of cancers than ... the screened population. This is
// necessary to make the trial reasonably short"). Given a guessed model
// and the *field* profile to be predicted, this module answers: how should
// a fixed budget of trial cases be allocated across classes so the Eq.-(8)
// field prediction is as precise as possible?
//
// Delta method: with n_x cases of class x in the trial, the sampling
// variance of the predicted field failure probability is
//
//   Var(PHf_field) ≈ sum_x c_x / n_x,
//   c_x = p_field(x)^2 · [ t(x)^2·PMf(1−PMf)
//                          + PMf·q1(1−q1) + PMs·q2(1−q2) ](x)
//
// (the three terms: uncertainty in PMf weighted by the importance index;
// in PHf|Mf = q1, observed on the ~n_x·PMf machine-failure cases; in
// PHf|Ms = q2 on the rest). Minimising sum c_x/n_x subject to
// sum n_x = N gives the Neyman allocation n_x ∝ sqrt(c_x) — typically far
// from the field mix: rare-but-uncertain-and-influential classes (the
// "difficult" cases) get heavily over-sampled, which is exactly what real
// trials do.
#pragma once

#include <cstdint>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "exec/config.hpp"

namespace hmdiv::core {

/// The delta-method variance coefficients c_x (see file comment).
[[nodiscard]] std::vector<double> variance_coefficients(
    const SequentialModel& model_guess, const DemandProfile& field);

/// Var(PHf_field) for a specific per-class case allocation (all entries
/// must be > 0; size must match the model's classes).
[[nodiscard]] double prediction_variance(const SequentialModel& model_guess,
                                         const DemandProfile& field,
                                         const std::vector<double>& cases);

/// A designed trial.
struct TrialDesign {
  /// Per-class case counts (sum ~ total, each >= 1).
  std::vector<double> cases;
  /// The implied trial demand profile (cases normalised).
  DemandProfile trial_profile;
  /// Predicted standard error of the Eq.-(8) field prediction.
  double predicted_standard_error = 0.0;
};

/// Neyman-optimal allocation of `total_cases` across classes for the
/// precision of the field prediction. Classes with zero coefficient get a
/// minimal share (1 case) so every parameter stays estimable.
[[nodiscard]] TrialDesign optimal_allocation(
    const SequentialModel& model_guess, const DemandProfile& field,
    double total_cases);

/// The same, for an arbitrary trial profile (e.g. sampling proportionally
/// to the field, or the paper's 80/20) — for comparison.
[[nodiscard]] TrialDesign allocation_for_profile(
    const SequentialModel& model_guess, const DemandProfile& field,
    const DemandProfile& trial_profile, double total_cases);

/// Neyman-optimal designs for a sweep of total-case budgets — the
/// planning curve "prediction precision vs trial size" behind the choice
/// of trial length. Budgets are evaluated in parallel on the exec engine
/// (each design is independent); the result aligns with `budgets`. Every
/// budget must satisfy the optimal_allocation precondition (at least one
/// case per class).
[[nodiscard]] std::vector<TrialDesign> design_curve(
    const SequentialModel& model_guess, const DemandProfile& field,
    const std::vector<double>& budgets,
    const exec::Config& config = {});

/// Cases *of class x* needed to pin the importance index t(x) down to
/// +/- `halfwidth` at the given confidence:
///
///   Var(t_hat(x)) = [ q1(1-q1)/PMf + q2(1-q2)/PMs ](x) / n_x,
///
/// (the conditional proportions are observed on the machine-failure and
/// machine-success subsets of the class's cases). This is the design
/// question behind Section 6: deciding *where to improve the machine*
/// requires knowing t(x), and for rare machine failures that takes many
/// cases — the quantitative reason trials enrich the difficult classes.
[[nodiscard]] std::uint64_t cases_for_importance_halfwidth(
    const ClassConditional& guess, double halfwidth,
    double confidence = 0.95);

}  // namespace hmdiv::core
