// Class-conditional generation of synthetic cases.
//
// Each class of cases has its own bivariate-normal distribution of (human,
// machine) difficulty, with a per-class correlation. A `CaseGenerator`
// samples a class from a demand profile, then the difficulties from that
// class's distribution. Substitutes the paper's screened population / trial
// case sets (see DESIGN.md substitution table).
#pragma once

#include <string>
#include <vector>

#include "core/demand_profile.hpp"
#include "sim/case.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {

/// Difficulty distribution of one class of cases.
struct CaseClassSpec {
  std::string name;
  double human_difficulty_mean = 0.0;
  double human_difficulty_sigma = 1.0;
  double machine_difficulty_mean = 0.0;
  double machine_difficulty_sigma = 1.0;
  /// Correlation between the two difficulties within the class, in [-1,1].
  /// Positive: cases hard for the reader tend to be hard for the CADT too.
  double difficulty_correlation = 0.0;
};

/// Samples cases class-by-class according to a demand profile.
class CaseGenerator {
 public:
  /// Spec names must match the profile's class names (same order); means
  /// must be finite and sigmas finite and >= 0. Throws
  /// std::invalid_argument otherwise.
  CaseGenerator(std::vector<CaseClassSpec> specs,
                core::DemandProfile profile);

  [[nodiscard]] std::size_t class_count() const { return specs_.size(); }
  [[nodiscard]] const core::DemandProfile& profile() const { return profile_; }
  [[nodiscard]] const CaseClassSpec& spec(std::size_t x) const;

  /// Draws the difficulties for a given class (used by generate() and by
  /// the procedure-1 world's case simulation).
  [[nodiscard]] std::pair<double, double> sample_difficulties(
      std::size_t class_index, stats::Rng& rng) const;

  /// Draws one case: class from the profile, difficulties from the class.
  [[nodiscard]] Case generate(stats::Rng& rng);

  /// A generator identical to this one but sampling classes from `profile`
  /// (e.g. switch from the trial mix to the field mix).
  [[nodiscard]] CaseGenerator with_profile(core::DemandProfile profile) const;

 private:
  std::vector<CaseClassSpec> specs_;
  core::DemandProfile profile_;
  std::uint64_t next_id_ = 0;
};

}  // namespace hmdiv::sim
