// Simulated computer-aided detection tool (CADT).
//
// Substitutes the proprietary prompting tool of the paper's case study. The
// detector's probability of prompting the relevant features of a cancer
// case is a logistic function of (capability − machine_difficulty); the
// `sensitivity_slope` controls how sharply performance degrades with
// difficulty, and `threshold_shift` moves the operating point (negative
// shift = more eager prompting = fewer false negatives but more false
// positives elsewhere). This reproduces the tunable FN/FP character the
// paper attributes to detection algorithms.
#pragma once

#include "sim/case.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {

/// Immutable-parameter CADT simulator.
class CadtModel {
 public:
  struct Config {
    /// Overall competence of the detection algorithms.
    double capability = 1.5;
    /// Steepness of the logistic psychometric curve (> 0).
    double sensitivity_slope = 1.5;
    /// Operating-point shift added to the difficulty before comparison;
    /// negative = more eager prompting.
    double threshold_shift = 0.0;
  };

  explicit CadtModel(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// P(the CADT prompts the relevant features | machine_difficulty).
  [[nodiscard]] double prompt_probability(double machine_difficulty) const;

  /// P(false negative | machine_difficulty) = 1 − prompt_probability.
  [[nodiscard]] double failure_probability(double machine_difficulty) const {
    return 1.0 - prompt_probability(machine_difficulty);
  }

  /// Simulates the CADT on one case: true = prompted (machine success).
  [[nodiscard]] bool prompts(const Case& c, stats::Rng& rng) const;

  /// A copy with the operating point shifted by `delta` (added to
  /// threshold_shift): the "different tuning of the detection algorithms"
  /// of Section 5 item 4.
  [[nodiscard]] CadtModel with_threshold_shift(double delta) const;

  /// A copy with capability multiplied by `factor` (> 0): "better detection
  /// algorithms".
  [[nodiscard]] CadtModel with_capability_factor(double factor) const;

 private:
  Config config_;
};

}  // namespace hmdiv::sim
