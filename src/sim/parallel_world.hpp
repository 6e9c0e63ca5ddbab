// The paper's *intended* procedure of use (Section 3, procedure 1): the
// reader examines the films alone first, then reviews the CADT's prompts
// "with the same attention and skill as the features that they noticed
// themselves", then classifies whatever was detected by either.
//
// This world simulates that procedure with an *instrumented* trial design
// (the reader's unaided findings are recorded before the prompts are shown
// — the before/after design real CADT studies use), so all three
// parallel-model parameters {pMf, pHmiss, pHmisclass} are observable and
// the validity of Eqs. (1)–(3) can be tested rather than assumed:
//
//  * `prompt_attention` = 1 reproduces the design ideal: a prompted feature
//    is always examined, detection is exactly 1-out-of-2 (Fig. 2).
//  * `prompt_attention` < 1 models readers skimming prompts — the paper's
//    worry that "there are not necessarily constraints or 'affordances' ...
//    to ensure" the procedure is followed; Eq. (1) then under-predicts
//    system failure.
//  * `within_class_scale` shrinks the within-class difficulty spread:
//    at 0 every class is homogeneous and the class-granular parallel model
//    is exact; at 1 the residual within-class difficulty correlates human
//    and machine detection inside each class, and the class-granular
//    Eq. (1) is optimistic (the same lesson as footnote 1, on the
//    detection side).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/parallel_model.hpp"
#include "sim/cadt.hpp"
#include "sim/case_generator.hpp"
#include "sim/reader.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {

/// Instrumented record of one case under procedure 1.
struct ParallelProcedureRecord {
  std::size_t class_index = 0;
  bool machine_failed = false;    ///< CADT did not prompt the features
  bool human_missed = false;      ///< unaided examination missed them
  bool detected = false;          ///< detected by either path in the end
  bool misclassified = false;     ///< detected but judged "no recall"
  bool system_failed = false;     ///< final false negative
};

/// Procedure-1 world.
class ParallelProcedureWorld {
 public:
  /// `prompt_attention` in [0,1]: probability a prompt on a missed feature
  /// actually gets the reader to examine it (1 = design ideal).
  /// `within_class_scale` in [0,1]: multiplies the difficulty sigmas
  /// (0 = homogeneous classes).
  ParallelProcedureWorld(CaseGenerator generator, CadtModel cadt,
                         ReaderModel reader, double prompt_attention = 1.0,
                         double within_class_scale = 1.0);

  [[nodiscard]] std::size_t class_count() const {
    return generator_.class_count();
  }
  [[nodiscard]] const std::vector<std::string>& class_names() const {
    return generator_.profile().class_names();
  }

  [[nodiscard]] ParallelProcedureRecord simulate_case(stats::Rng& rng);

  /// Batch kernel: the shrink-scaled per-class difficulty parameters
  /// (mean, scale·sigma, correlation) are hoisted into flat arrays once
  /// per batch, class indices come from the profile's alias table over one
  /// bulk uniform fill, and difficulties from one bulk normal fill (two
  /// deviates per case). Decision draws stay per-case (their count is
  /// path-dependent). Consumes randomness in a different order than
  /// simulate_case; run() goes through this kernel, making it the
  /// canonical stream (simulate_case stays the distributional reference).
  void simulate_batch(std::span<ParallelProcedureRecord> out,
                      stats::Rng& rng) const;

  /// Simulates `cases` demands through the batch kernel.
  [[nodiscard]] std::vector<ParallelProcedureRecord> run(std::uint64_t cases,
                                                         stats::Rng& rng);

  /// The class-granular parallel model of this world: what an infinitely
  /// large instrumented trial would estimate, integrated exactly over the
  /// shrink-scaled difficulty distributions (expect_over_difficulties).
  /// With within_class_scale = 0 and prompt_attention = 1 its Eq. (1)
  /// prediction equals exact_system_failure().
  [[nodiscard]] core::ParallelDetectionModel ground_truth() const;

  /// Exact system false-negative probability under the generator's
  /// profile, by joint integration (no class-granularity or procedure
  /// idealisation).
  [[nodiscard]] double exact_system_failure() const;

 private:
  [[nodiscard]] std::pair<double, double> sample_scaled_difficulties(
      std::size_t class_index, stats::Rng& rng) const;
  /// Class `class_index`'s spec with both sigmas multiplied by
  /// within_class_scale.
  [[nodiscard]] CaseClassSpec scaled_spec(std::size_t class_index) const;

  CaseGenerator generator_;
  CadtModel cadt_;
  ReaderModel reader_;
  double prompt_attention_;
  double within_class_scale_;
};

/// Per-class parallel-model estimates from instrumented records.
struct ParallelEstimate {
  std::vector<std::string> class_names;
  std::vector<core::ParallelClassConditional> classes;
  double observed_system_failure = 0.0;

  [[nodiscard]] core::ParallelDetectionModel fitted_model() const {
    return core::ParallelDetectionModel(class_names, classes);
  }
};

/// Maximum-likelihood proportions; throws if a class has no cases or no
/// detected cases (pHmisclass would be undefined).
[[nodiscard]] ParallelEstimate estimate_parallel_model(
    const std::vector<ParallelProcedureRecord>& records,
    const std::vector<std::string>& class_names);

}  // namespace hmdiv::sim
