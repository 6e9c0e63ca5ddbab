#include "sim/case_generator.hpp"

#include <cmath>
#include <stdexcept>

namespace hmdiv::sim {

CaseGenerator::CaseGenerator(std::vector<CaseClassSpec> specs,
                             core::DemandProfile profile)
    : specs_(std::move(specs)), profile_(std::move(profile)) {
  if (specs_.size() != profile_.class_count()) {
    throw std::invalid_argument(
        "CaseGenerator: one spec per profile class required");
  }
  for (std::size_t x = 0; x < specs_.size(); ++x) {
    const CaseClassSpec& s = specs_[x];
    if (s.name != profile_.class_names()[x]) {
      throw std::invalid_argument(
          "CaseGenerator: spec names must match profile class names");
    }
    if (!std::isfinite(s.human_difficulty_mean) ||
        !std::isfinite(s.machine_difficulty_mean)) {
      throw std::invalid_argument("CaseGenerator: means must be finite");
    }
    if (!(std::isfinite(s.human_difficulty_sigma) &&
          s.human_difficulty_sigma >= 0.0) ||
        !(std::isfinite(s.machine_difficulty_sigma) &&
          s.machine_difficulty_sigma >= 0.0)) {
      throw std::invalid_argument(
          "CaseGenerator: sigmas must be finite and >= 0");
    }
    if (!(s.difficulty_correlation >= -1.0 &&
          s.difficulty_correlation <= 1.0)) {
      throw std::invalid_argument(
          "CaseGenerator: correlation outside [-1,1]");
    }
  }
}

const CaseClassSpec& CaseGenerator::spec(std::size_t x) const {
  if (x >= specs_.size()) {
    throw std::invalid_argument("CaseGenerator: class index out of range");
  }
  return specs_[x];
}

std::pair<double, double> CaseGenerator::sample_difficulties(
    std::size_t class_index, stats::Rng& rng) const {
  const CaseClassSpec& s = spec(class_index);
  // Bivariate normal via Cholesky of [[1, rho], [rho, 1]].
  const double z1 = rng.normal();
  const double z2 = rng.normal();
  const double rho = s.difficulty_correlation;
  const double human = s.human_difficulty_mean + s.human_difficulty_sigma * z1;
  const double machine =
      s.machine_difficulty_mean +
      s.machine_difficulty_sigma *
          (rho * z1 + std::sqrt(1.0 - rho * rho) * z2);
  return {human, machine};
}

Case CaseGenerator::generate(stats::Rng& rng) {
  Case c;
  c.id = next_id_++;
  c.class_index = profile_.sample(rng);
  c.has_cancer = true;  // FN analysis: the generated stream is cancer cases.
  const auto [human, machine] = sample_difficulties(c.class_index, rng);
  c.human_difficulty = human;
  c.machine_difficulty = machine;
  return c;
}

CaseGenerator CaseGenerator::with_profile(core::DemandProfile profile) const {
  return CaseGenerator(specs_, std::move(profile));
}

}  // namespace hmdiv::sim
