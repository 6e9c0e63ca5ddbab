// Closed-form model of the more complex programmes named in the paper's
// Conclusions: "two readers assisted by a CADT, or less qualified readers
// assisted by CADTs". (UK-practice double reading with and without
// arbitration is simulated by screening::DoubleReadingPolicy.)
//
// The model stays in the paper's formalism: failure probabilities are
// conditional on the class of cases and on the machine's success/failure,
// with conditional independence *given* those conditioning events.
// Marginal correlation between readers then arises from the shared
// difficulty of cases and the shared CADT output — no unwarranted
// independence assumption at the system level. The recall rule is
// "recall if either reader recalls" (1-out-of-2), so a system false
// negative requires both readers to fail.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"

namespace hmdiv::core {

/// One reader's conditional false-negative probabilities for one class,
/// given the CADT's outcome on that case.
struct ReaderConditional {
  double p_fail_given_machine_fails = 0.0;
  double p_fail_given_machine_succeeds = 0.0;
};

/// Two readers, both seeing the same CADT output (the machine processes the
/// case once; both readers see the prompted films). Given the class and the
/// machine outcome, reader failures are conditionally independent.
class TwoReadersWithCadtModel {
 public:
  /// `p_machine_fails[x]`: CADT false-negative probability per class.
  TwoReadersWithCadtModel(std::vector<std::string> class_names,
                          std::vector<double> p_machine_fails,
                          std::vector<ReaderConditional> reader_a,
                          std::vector<ReaderConditional> reader_b);

  [[nodiscard]] std::size_t class_count() const { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& class_names() const {
    return names_;
  }

  /// P(system FN | class x)
  ///   = PMf(x)·pA|Mf(x)·pB|Mf(x) + PMs(x)·pA|Ms(x)·pB|Ms(x).
  [[nodiscard]] double system_failure_given_class(std::size_t x) const;
  [[nodiscard]] double system_failure_probability(
      const DemandProfile& profile) const;

  /// The single-reader submodel for reader A or B (drop the other reader) —
  /// lets callers compare one-reader-with-CADT against two.
  [[nodiscard]] SequentialModel reader_a_alone() const;
  [[nodiscard]] SequentialModel reader_b_alone() const;

  /// The naive estimate that multiplies the two single-reader system
  /// failure probabilities per class, ignoring that both readers share the
  /// *same* machine outcome. Underestimates failure when t(x) > 0 for both
  /// readers; exposed so benches can show the size of the error.
  [[nodiscard]] double system_failure_assuming_reader_independence(
      const DemandProfile& profile) const;

 private:
  void check_class(std::size_t x) const;

  std::vector<std::string> names_;
  std::vector<double> p_machine_fails_;
  std::vector<ReaderConditional> reader_a_;
  std::vector<ReaderConditional> reader_b_;
};

}  // namespace hmdiv::core
