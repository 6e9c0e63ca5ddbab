// Design-space advice derived from the model (Sections 5–6).
//
// The paper's central design insight: improving the machine on the classes
// where it fails most is *not* necessarily best. The system-level gain from
// reducing PMf(x) by Δ on class x is p(x)·t(x)·Δ — so the classes worth
// targeting are those with high demand probability, high importance index
// t(x), and headroom in PMf(x). The DesignAdvisor ranks candidate
// improvements by exact recomputation of Eq. (8) on the improved model, and
// reports the §6.1 floor and §6.2 covariance diagnosis.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"

namespace hmdiv::core {

/// A candidate machine improvement: scale PMf on one class (or all).
struct ImprovementCandidate {
  std::string name;
  /// Class to improve; npos (== size_t(-1)) means all classes uniformly.
  std::size_t class_index = kAllClasses;
  double factor = 0.1;

  static constexpr std::size_t kAllClasses = static_cast<std::size_t>(-1);
};

/// The evaluated effect of one candidate.
struct ImprovementEffect {
  std::string name;
  double baseline_failure = 0.0;
  double improved_failure = 0.0;
  /// baseline − improved (positive = the candidate helps).
  [[nodiscard]] double absolute_gain() const {
    return baseline_failure - improved_failure;
  }
  /// Gain as a fraction of the baseline.
  [[nodiscard]] double relative_gain() const {
    return baseline_failure > 0.0 ? absolute_gain() / baseline_failure : 0.0;
  }
};

/// Diagnosis of where the system's failure probability comes from and what
/// can and cannot fix it.
struct DesignDiagnosis {
  /// System failure probability under the profile.
  double system_failure = 0.0;
  /// §6.1 floor E[PHf|Ms]: unreachable by machine improvement alone.
  double floor = 0.0;
  /// Fraction of system failure that machine improvement could remove
  /// (1 − floor/system_failure).
  double machine_addressable_fraction = 0.0;
  /// §6.2 covariance cov_x(PMf, t); positive = correlated weakness.
  double covariance = 0.0;
  /// Weighted correlation of PMf(x) and t(x) in [−1,1].
  double correlation = 0.0;
  /// Per-class leverage p(x)·t(x)·PMf(x): the maximum absolute reduction in
  /// system failure obtainable by perfecting the machine on that class.
  std::vector<double> class_leverage;
};

class DesignAdvisor {
 public:
  /// Throws std::invalid_argument if the profile's classes do not match
  /// the model's.
  DesignAdvisor(SequentialModel model, DemandProfile profile);

  [[nodiscard]] const SequentialModel& model() const { return model_; }
  [[nodiscard]] const DemandProfile& profile() const { return profile_; }

  /// Evaluates one candidate under this advisor's profile: Eq. (8) on
  /// model().with_machine_improvement (or the uniform transform), which
  /// also validates the candidate.
  [[nodiscard]] ImprovementEffect evaluate(
      const ImprovementCandidate& candidate) const;

  /// Evaluates and sorts candidates by descending absolute gain.
  [[nodiscard]] std::vector<ImprovementEffect> rank(
      std::vector<ImprovementCandidate> candidates) const;

  /// The class with the greatest leverage p(x)·t(x)·PMf(x) — the paper's
  /// "concentrate any improvements on cases for which readers have a high
  /// t(x) (and that are somewhat frequent)".
  [[nodiscard]] std::size_t best_target_class() const;

  [[nodiscard]] DesignDiagnosis diagnose() const;

 private:
  SequentialModel model_;
  DemandProfile profile_;
};

}  // namespace hmdiv::core
