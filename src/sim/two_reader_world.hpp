// The "two readers assisted by a CADT" configuration named in the
// paper's Conclusions: the machine processes the case once; both readers
// independently interpret the case *plus the same prompts*; the programme
// recalls if either reader recalls.
//
// Exposes two exact integrals over the case-difficulty distributions: the
// conditional-independence TwoReadersWithCadtModel an analyst would write
// down, and the true joint failure, which also counts the residual
// difficulty both readers share within a class. X2 (programme_comparison)
// prints both; it simulates the pair through
// screening::TwoReadersWithCadtPolicy.
#pragma once

#include <string>
#include <vector>

#include "core/multi_reader.hpp"
#include "sim/cadt.hpp"
#include "sim/case_generator.hpp"
#include "sim/reader.hpp"

namespace hmdiv::sim {

/// Two static readers sharing one machine.
class TwoReaderWorld {
 public:
  TwoReaderWorld(CaseGenerator generator, CadtModel cadt, ReaderModel reader_a,
                 ReaderModel reader_b);

  [[nodiscard]] std::size_t class_count() const {
    return generator_.class_count();
  }
  [[nodiscard]] const std::vector<std::string>& class_names() const {
    return generator_.profile().class_names();
  }

  /// The conditional-independence model of this world (readers independent
  /// given class + machine outcome), integrated exactly over the difficulty
  /// distributions (expect_over_difficulties; readers taken at their
  /// current reliance states). NOTE: this is the model an analyst following
  /// the paper's formalism would write down — and it *underestimates* the
  /// pair's joint failure probability, because within a class both readers
  /// also share the same residual case difficulty. Compare with
  /// exact_system_failure(); the gap is the within-class analogue of the
  /// paper's Eq. (3) covariance.
  [[nodiscard]] core::TwoReadersWithCadtModel ground_truth() const;

  /// The exact system (both readers fail) probability under `profile`, by
  /// integrating the *joint* conditional failure over the shared latent
  /// difficulty: E_h[ pPrompt·pA(h,t)·pB(h,t) + (1−pPrompt)·pA(h,f)·pB(h,f) ].
  /// Throws std::invalid_argument if `profile`'s classes are not this
  /// world's.
  [[nodiscard]] double exact_system_failure(
      const core::DemandProfile& profile) const;

 private:
  /// Both readers' misclassification kinks.
  [[nodiscard]] std::vector<double> human_kinks() const;
  /// The steepest logistic slope of the CADT and both readers.
  [[nodiscard]] double steepest_slope() const;

  CaseGenerator generator_;
  CadtModel cadt_;
  ReaderModel reader_a_;
  ReaderModel reader_b_;
};

}  // namespace hmdiv::sim
