#include "sim/reader.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hmdiv::sim {

ReaderModel::ReaderModel(Config config)
    : config_(config), reliance_(config.initial_reliance) {
  if (!(config_.detection_slope > 0.0)) {
    throw std::invalid_argument("ReaderModel: detection_slope must be > 0");
  }
  if (!(config_.prompt_effectiveness >= 0.0 &&
        config_.prompt_effectiveness <= 1.0)) {
    throw std::invalid_argument(
        "ReaderModel: prompt_effectiveness outside [0,1]");
  }
  if (!(config_.initial_reliance >= 0.0 && config_.initial_reliance < 1.0)) {
    throw std::invalid_argument("ReaderModel: initial_reliance outside [0,1)");
  }
  if (config_.misclassification_base < 0.0 ||
      config_.misclassification_slope < 0.0 ||
      !(config_.misclassification_max >= 0.0 &&
        config_.misclassification_max <= 1.0)) {
    throw std::invalid_argument(
        "ReaderModel: invalid misclassification parameters");
  }
  if (config_.false_recall_base < 0.0 || config_.false_recall_slope < 0.0 ||
      !(config_.false_recall_max >= 0.0 && config_.false_recall_max <= 1.0) ||
      !(config_.prompt_recall_bias >= 0.0 &&
        config_.prompt_recall_bias <= 1.0)) {
    throw std::invalid_argument(
        "ReaderModel: invalid false-recall parameters");
  }
  if (!(config_.adaptation_rate >= 0.0 && config_.adaptation_rate <= 1.0)) {
    throw std::invalid_argument("ReaderModel: adaptation_rate outside [0,1]");
  }
  if (!(config_.reliance_floor >= 0.0 && config_.reliance_gain >= 0.0 &&
        config_.reliance_floor + config_.reliance_gain < 1.0)) {
    throw std::invalid_argument(
        "ReaderModel: reliance floor+gain must stay below 1");
  }
}

double ReaderModel::unaided_detection_probability(
    double human_difficulty) const {
  const double margin = config_.skill - human_difficulty;
  return 1.0 / (1.0 + std::exp(-config_.detection_slope * margin));
}

double ReaderModel::detection_probability(double human_difficulty,
                                          bool prompted) const {
  const double unaided = unaided_detection_probability(human_difficulty);
  if (prompted) {
    // The prompt directs attention to the features: only the residual miss
    // probability survives.
    return 1.0 - (1.0 - unaided) * (1.0 - config_.prompt_effectiveness);
  }
  // No prompt: a reliant reader searches un-prompted regions less.
  return unaided * (1.0 - reliance_);
}

double ReaderModel::misclassification_probability(
    double human_difficulty) const {
  return std::clamp(config_.misclassification_base +
                        config_.misclassification_slope * human_difficulty,
                    0.0, config_.misclassification_max);
}

std::vector<double> ReaderModel::misclassification_kinks() const {
  const double slope = config_.misclassification_slope;
  if (slope == 0.0) return {};
  return {-config_.misclassification_base / slope,
          (config_.misclassification_max - config_.misclassification_base) /
              slope};
}

double ReaderModel::failure_probability(double human_difficulty,
                                        bool prompted) const {
  const double p_detect = detection_probability(human_difficulty, prompted);
  const double p_misclass = misclassification_probability(human_difficulty);
  // Fail by missing the features, or by detecting and misclassifying.
  return (1.0 - p_detect) + p_detect * p_misclass;
}

double ReaderModel::false_recall_probability(double suspiciousness,
                                             bool prompted) const {
  const double unaided =
      std::clamp(config_.false_recall_base +
                     config_.false_recall_slope * suspiciousness,
                 0.0, config_.false_recall_max);
  if (!prompted) return unaided;
  return 1.0 - (1.0 - unaided) * (1.0 - config_.prompt_recall_bias);
}

ReaderDecision ReaderModel::decide(const Case& c, bool prompted,
                                   stats::Rng& rng) const {
  ReaderDecision out;
  out.detected =
      rng.bernoulli(detection_probability(c.human_difficulty, prompted));
  out.recalled =
      out.detected &&
      !rng.bernoulli(misclassification_probability(c.human_difficulty));
  return out;
}

void ReaderModel::observe(bool machine_prompted,
                          bool reader_detected_unaided) {
  if (config_.adaptation_rate <= 0.0) return;
  // The reader can only judge the machine on cases where they themselves
  // found the features: prompt present = machine looked useful, prompt
  // absent = a visible machine miss. Silent cases the reader also missed
  // teach them nothing.
  if (reader_detected_unaided) {
    const double signal = machine_prompted ? 1.0 : 0.0;
    perceived_reliability_ += config_.adaptation_rate *
                              (signal - perceived_reliability_);
  }
  const double target =
      config_.reliance_floor + config_.reliance_gain * perceived_reliability_;
  reliance_ += config_.adaptation_rate * (target - reliance_);
  reliance_ = std::clamp(reliance_, 0.0, 0.999);
}

ReaderModel ReaderModel::with_skill_factor(double factor) const {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("ReaderModel: skill factor must be > 0");
  }
  Config modified = config_;
  modified.skill *= factor;
  ReaderModel out(modified);
  out.reliance_ = reliance_;
  out.perceived_reliability_ = perceived_reliability_;
  return out;
}

ReaderModel ReaderModel::with_reliance(double reliance) const {
  if (!(reliance >= 0.0 && reliance < 1.0)) {
    throw std::invalid_argument("ReaderModel: reliance outside [0,1)");
  }
  ReaderModel out(config_);
  out.reliance_ = reliance;
  out.perceived_reliability_ = perceived_reliability_;
  return out;
}

}  // namespace hmdiv::sim
