// Simulated human reader, with automation bias and complacency dynamics.
//
// Substitutes the radiologists of the paper's trials. The reader's task has
// the paper's two (not necessarily consciously separate) components:
//
//   detection      — noticing the relevant features. Unaided success is a
//                    logistic psychometric function of (skill − difficulty).
//                    A prompt raises it (the design intent of the CADT); an
//                    *absent* prompt lowers it below the unaided level when
//                    the reader relies on the machine (automation bias /
//                    "complacency", the paper's Section 5 item 3 and its
//                    Skitka et al. reference [7]).
//   classification — deciding that detected features mean "recall". Failure
//                    probability rises with difficulty.
//
// Reliance is dynamic: the reader keeps an exponentially weighted estimate
// of the machine's usefulness (how often prompts mark features the reader
// verified) and drifts towards a reliance level that grows with perceived
// machine reliability. Improving the machine therefore *indirectly* worsens
// PHf|Mf over time — the paper's key caution about extrapolating after
// design changes.
#pragma once

#include <vector>

#include "sim/case.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {

/// The reader's decision on one case, with intermediate flags for analysis.
struct ReaderDecision {
  bool detected = false;     ///< relevant features noticed
  bool recalled = false;     ///< final decision; system FN iff !recalled
};

/// Simulated reader. Copyable value type; mutable only in its reliance
/// state (updated by observe()).
class ReaderModel {
 public:
  struct Config {
    /// Reading skill on the difficulty scale (higher = better).
    double skill = 1.0;
    /// Steepness of the detection psychometric curve (> 0).
    double detection_slope = 1.3;
    /// How much a prompt helps: residual miss probability is multiplied by
    /// (1 − prompt_effectiveness). In [0,1].
    double prompt_effectiveness = 0.75;
    /// Initial reliance on the machine, in [0,1). When the machine is
    /// silent, unaided detection probability is multiplied by
    /// (1 − reliance): attention not spent where the machine said nothing.
    double initial_reliance = 0.2;
    /// Classification: P(misclassify | detected) =
    /// clamp(base + slope·difficulty, 0, max). All >= 0.
    double misclassification_base = 0.05;
    double misclassification_slope = 0.08;
    double misclassification_max = 0.6;
    /// False-positive side (normal cases): P(recall | healthy case) =
    /// clamp(base + slope·suspiciousness, 0, max), and a machine prompt on
    /// a healthy case biases the reader towards recall by multiplying the
    /// residual no-recall probability by (1 − prompt_recall_bias).
    double false_recall_base = 0.04;
    double false_recall_slope = 0.10;
    double false_recall_max = 0.9;
    double prompt_recall_bias = 0.35;
    /// Complacency dynamics: reliance drifts towards
    /// target = reliance_floor + reliance_gain·perceived_reliability with
    /// learning rate `adaptation_rate` per observed case. Set
    /// adaptation_rate = 0 for a static reader.
    double adaptation_rate = 0.0;
    double reliance_floor = 0.05;
    double reliance_gain = 0.6;
  };

  explicit ReaderModel(Config config);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] double reliance() const { return reliance_; }

  /// Raw psychometric detection probability, before any prompt boost or
  /// reliance penalty: logistic(detection_slope · (skill − difficulty)).
  [[nodiscard]] double unaided_detection_probability(
      double human_difficulty) const;

  /// P(detect | difficulty, prompted?) — analytic; pure in the reader's
  /// current reliance state.
  [[nodiscard]] double detection_probability(double human_difficulty,
                                             bool prompted) const;

  /// P(misclassify | detected, difficulty) — analytic.
  [[nodiscard]] double misclassification_probability(
      double human_difficulty) const;

  /// The difficulties where misclassification_probability's clamp bends,
  /// −base/slope and (max − base)/slope; none when the slope is 0. They
  /// are the only points where a reader probability is not smooth, so
  /// exact integrals over difficulty split there.
  [[nodiscard]] std::vector<double> misclassification_kinks() const;

  /// P(reader fails, i.e. no recall of a cancer | difficulty, prompted?).
  [[nodiscard]] double failure_probability(double human_difficulty,
                                           bool prompted) const;

  /// P(reader wrongly recalls a *healthy* patient | suspiciousness,
  /// prompted?) — the false-positive side.
  [[nodiscard]] double false_recall_probability(double suspiciousness,
                                                bool prompted) const;

  /// Simulates the full decision on one cancer case.
  [[nodiscard]] ReaderDecision decide(const Case& c, bool prompted,
                                      stats::Rng& rng) const;

  /// Updates the reliance state after a case: `machine_prompted` is what
  /// the reader saw; `reader_detected_unaided` is whether the reader found
  /// the features regardless of the prompt (their only window onto machine
  /// misses). No effect when adaptation_rate == 0.
  void observe(bool machine_prompted, bool reader_detected_unaided);

  /// A copy with skill multiplied by `factor` (> 0): reader training /
  /// less-qualified readers (factor < 1).
  [[nodiscard]] ReaderModel with_skill_factor(double factor) const;

  /// A copy with a different fixed reliance (state override).
  [[nodiscard]] ReaderModel with_reliance(double reliance) const;

 private:
  Config config_;
  double reliance_;
  /// EWMA of observed machine usefulness, in [0,1].
  double perceived_reliability_ = 0.5;
};

}  // namespace hmdiv::sim
