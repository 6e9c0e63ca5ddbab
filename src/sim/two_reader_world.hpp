// Simulation of the "two readers assisted by a CADT" configuration named
// in the paper's Conclusions: the machine processes the case once; both
// readers independently interpret the case *plus the same prompts*; the
// programme recalls if either reader recalls.
//
// Emits per-case records with both readers' outcomes so the
// TwoReadersWithCadtModel's parameters — including the between-reader
// correlation induced by the shared machine — can be estimated and checked
// against the closed form.
#pragma once

#include <cstdint>
#include <vector>

#include "core/multi_reader.hpp"
#include "sim/cadt.hpp"
#include "sim/case_generator.hpp"
#include "sim/reader.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {

/// Observable outcome of one demand under two readers + one CADT.
struct TwoReaderRecord {
  std::size_t class_index = 0;
  bool machine_failed = false;
  bool reader_a_failed = false;
  bool reader_b_failed = false;
  /// System FN iff both readers fail (recall-if-either rule).
  [[nodiscard]] bool system_failed() const {
    return reader_a_failed && reader_b_failed;
  }
};

/// Two static readers sharing one machine over a case stream.
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

  [[nodiscard]] TwoReaderRecord simulate_case(stats::Rng& rng);
  [[nodiscard]] std::vector<TwoReaderRecord> run(std::uint64_t cases,
                                                 stats::Rng& rng);

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

/// Estimated per-class parameters of the two-reader system.
struct TwoReaderEstimate {
  std::vector<std::string> class_names;
  std::vector<double> p_machine_fails;
  std::vector<core::ReaderConditional> reader_a;
  std::vector<core::ReaderConditional> reader_b;
  /// Observed system (both-fail) rate, overall.
  double observed_system_failure = 0.0;

  [[nodiscard]] core::TwoReadersWithCadtModel fitted_model() const;
};

/// Maximum-likelihood proportions from two-reader records. Throws if any
/// class has no cases.
[[nodiscard]] TwoReaderEstimate estimate_two_reader_model(
    const std::vector<TwoReaderRecord>& records,
    const std::vector<std::string>& class_names);

}  // namespace hmdiv::sim
