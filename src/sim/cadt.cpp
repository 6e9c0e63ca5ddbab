#include "sim/cadt.hpp"

#include <cmath>
#include <stdexcept>

namespace hmdiv::sim {

CadtModel::CadtModel(Config config) : config_(config) {
  if (!(config_.sensitivity_slope > 0.0)) {
    throw std::invalid_argument("CadtModel: sensitivity_slope must be > 0");
  }
}

double CadtModel::prompt_probability(double machine_difficulty) const {
  const double margin =
      config_.capability - (machine_difficulty + config_.threshold_shift);
  return 1.0 / (1.0 + std::exp(-config_.sensitivity_slope * margin));
}

bool CadtModel::prompts(const Case& c, stats::Rng& rng) const {
  return rng.bernoulli(prompt_probability(c.machine_difficulty));
}

CadtModel CadtModel::with_threshold_shift(double delta) const {
  Config modified = config_;
  modified.threshold_shift += delta;
  return CadtModel(modified);
}

CadtModel CadtModel::with_capability_factor(double factor) const {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("CadtModel: capability factor must be > 0");
  }
  Config modified = config_;
  modified.capability *= factor;
  return CadtModel(modified);
}

}  // namespace hmdiv::sim
