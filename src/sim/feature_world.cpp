#include "sim/feature_world.hpp"

#include <stdexcept>

namespace hmdiv::sim {

FeatureWorld::FeatureWorld(CaseGenerator generator, CadtModel cadt,
                           ReaderModel reader)
    : generator_(std::move(generator)),
      cadt_(std::move(cadt)),
      reader_(std::move(reader)) {}

std::size_t FeatureWorld::class_count() const {
  return generator_.class_count();
}

const std::vector<std::string>& FeatureWorld::class_names() const {
  return generator_.profile().class_names();
}

FeatureWorld::DetailedOutcome FeatureWorld::simulate_detailed(
    stats::Rng& rng) {
  DetailedOutcome out;
  out.demand = generator_.generate(rng);
  out.machine_prompted = cadt_.prompts(out.demand, rng);

  // Couple the reader's detection to a single latent uniform so that the
  // "did the reader find it unaided?" event — the only signal available for
  // reliance adaptation — is consistent with the prompted/unprompted
  // detection probabilities (both are monotone transforms of the unaided
  // probability).
  const double u = rng.uniform();
  const double p_unaided =
      reader_.unaided_detection_probability(out.demand.human_difficulty);
  const bool detected_unaided = u < p_unaided;
  if (out.machine_prompted) {
    // Residual misses recovered with probability prompt_effectiveness.
    out.reader_detected =
        detected_unaided ||
        rng.bernoulli(reader_.config().prompt_effectiveness);
  } else {
    // A reliant reader skips unprompted regions with probability reliance.
    out.reader_detected =
        detected_unaided && !rng.bernoulli(reader_.reliance());
  }
  const bool misclassified =
      out.reader_detected &&
      rng.bernoulli(reader_.misclassification_probability(
          out.demand.human_difficulty));
  out.recalled = out.reader_detected && !misclassified;

  if (adaptation_enabled_) {
    reader_.observe(out.machine_prompted, detected_unaided);
  }
  return out;
}

CaseRecord FeatureWorld::simulate_case(stats::Rng& rng) {
  const DetailedOutcome detail = simulate_detailed(rng);
  CaseRecord r;
  r.class_index = detail.demand.class_index;
  r.machine_failed = !detail.machine_prompted;
  r.human_failed = !detail.recalled;
  return r;
}

void FeatureWorld::simulate_batch(std::span<CaseRecord> out,
                                  stats::Rng& rng) const {
  FeatureWorld local = *this;
  for (CaseRecord& record : out) record = local.simulate_case(rng);
}

FeatureWorld reference_feature_world(
    std::optional<core::DemandProfile> profile) {
  std::vector<CaseClassSpec> specs(2);
  specs[0].name = "easy";
  specs[0].human_difficulty_mean = -0.6;
  specs[0].human_difficulty_sigma = 0.8;
  specs[0].machine_difficulty_mean = -0.9;
  specs[0].machine_difficulty_sigma = 0.8;
  specs[0].difficulty_correlation = 0.3;

  specs[1].name = "difficult";
  specs[1].human_difficulty_mean = 1.4;
  specs[1].human_difficulty_sigma = 0.9;
  specs[1].machine_difficulty_mean = 1.1;
  specs[1].machine_difficulty_sigma = 1.0;
  specs[1].difficulty_correlation = 0.55;

  core::DemandProfile mix = profile.has_value()
                                ? std::move(*profile)
                                : core::DemandProfile(
                                      {"easy", "difficult"}, {0.8, 0.2});
  CaseGenerator generator(std::move(specs), std::move(mix));

  CadtModel::Config cadt_config;
  cadt_config.capability = 1.6;
  cadt_config.sensitivity_slope = 1.4;
  CadtModel cadt(cadt_config);

  ReaderModel::Config reader_config;
  reader_config.skill = 1.2;
  reader_config.detection_slope = 1.3;
  reader_config.prompt_effectiveness = 0.7;
  reader_config.initial_reliance = 0.15;
  reader_config.misclassification_base = 0.06;
  reader_config.misclassification_slope = 0.07;
  reader_config.misclassification_max = 0.5;
  ReaderModel reader(reader_config);

  return FeatureWorld(std::move(generator), std::move(cadt),
                      std::move(reader));
}

}  // namespace hmdiv::sim
