#include "sim/parallel_world.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "sim/difficulty_quadrature.hpp"

namespace hmdiv::sim {

ParallelProcedureWorld::ParallelProcedureWorld(CaseGenerator generator,
                                               CadtModel cadt,
                                               ReaderModel reader,
                                               double prompt_attention,
                                               double within_class_scale)
    : generator_(std::move(generator)),
      cadt_(std::move(cadt)),
      reader_(std::move(reader)),
      prompt_attention_(prompt_attention),
      within_class_scale_(within_class_scale) {
  if (!(prompt_attention_ >= 0.0 && prompt_attention_ <= 1.0)) {
    throw std::invalid_argument(
        "ParallelProcedureWorld: prompt_attention outside [0,1]");
  }
  if (!(within_class_scale_ >= 0.0 && within_class_scale_ <= 1.0)) {
    throw std::invalid_argument(
        "ParallelProcedureWorld: within_class_scale outside [0,1]");
  }
}

std::pair<double, double> ParallelProcedureWorld::sample_scaled_difficulties(
    std::size_t class_index, stats::Rng& rng) const {
  const CaseClassSpec& spec = generator_.spec(class_index);
  const auto [human, machine] =
      generator_.sample_difficulties(class_index, rng);
  // Shrink the deviation from the class means by the scale factor.
  return {spec.human_difficulty_mean +
              within_class_scale_ * (human - spec.human_difficulty_mean),
          spec.machine_difficulty_mean +
              within_class_scale_ * (machine - spec.machine_difficulty_mean)};
}

ParallelProcedureRecord ParallelProcedureWorld::simulate_case(
    stats::Rng& rng) {
  ParallelProcedureRecord r;
  r.class_index = generator_.profile().sample(rng);
  const auto [human_difficulty, machine_difficulty] =
      sample_scaled_difficulties(r.class_index, rng);

  // Step 1: unaided examination, full attention (no machine output yet).
  const bool detected_unaided = rng.bernoulli(
      reader_.unaided_detection_probability(human_difficulty));
  r.human_missed = !detected_unaided;

  // Step 2: CADT output reviewed.
  const bool prompted = rng.bernoulli(
      cadt_.prompt_probability(machine_difficulty));
  r.machine_failed = !prompted;
  const bool recovered_by_prompt =
      !detected_unaided && prompted && rng.bernoulli(prompt_attention_);
  r.detected = detected_unaided || recovered_by_prompt;

  // Step 3: classification of whatever was detected.
  r.misclassified =
      r.detected && rng.bernoulli(reader_.misclassification_probability(
                        human_difficulty));
  r.system_failed = !r.detected || r.misclassified;
  return r;
}

void ParallelProcedureWorld::simulate_batch(
    std::span<ParallelProcedureRecord> out, stats::Rng& rng) const {
  const std::size_t n = out.size();
  if (n == 0) return;
  // Hoist the shrink-scaled class parameters: scaled difficulty =
  // mean + within_class_scale · sigma · z, with the class correlation
  // applied to the machine deviate (same algebra as
  // sample_scaled_difficulties, constants folded).
  const std::size_t k = class_count();
  std::vector<double> h_mean(k), h_scale(k), m_mean(k), m_scale(k), rho(k),
      rho_residual(k);
  for (std::size_t x = 0; x < k; ++x) {
    const CaseClassSpec& spec = generator_.spec(x);
    h_mean[x] = spec.human_difficulty_mean;
    h_scale[x] = within_class_scale_ * spec.human_difficulty_sigma;
    m_mean[x] = spec.machine_difficulty_mean;
    m_scale[x] = within_class_scale_ * spec.machine_difficulty_sigma;
    rho[x] = spec.difficulty_correlation;
    rho_residual[x] = std::sqrt(1.0 - rho[x] * rho[x]);
  }
  // SoA draws: one bulk uniform per case for the class, two bulk normals
  // per case for the difficulties; decision draws below stay per-case.
  thread_local std::vector<double> u_class;
  thread_local std::vector<double> z;
  u_class.resize(n);
  z.resize(2 * n);
  rng.fill_uniform(u_class);
  rng.fill_normal(z);
  const stats::AliasTable& alias = generator_.profile().alias();
  for (std::size_t i = 0; i < n; ++i) {
    ParallelProcedureRecord& r = out[i];
    r = ParallelProcedureRecord{};
    r.class_index = alias.sample_from_uniform(u_class[i]);
    const std::size_t x = r.class_index;
    const double z1 = z[2 * i];
    const double z2 = z[2 * i + 1];
    const double human_difficulty = h_mean[x] + h_scale[x] * z1;
    const double machine_difficulty =
        m_mean[x] + m_scale[x] * (rho[x] * z1 + rho_residual[x] * z2);

    const bool detected_unaided = rng.bernoulli(
        reader_.unaided_detection_probability(human_difficulty));
    r.human_missed = !detected_unaided;
    const bool prompted = rng.bernoulli(
        cadt_.prompt_probability(machine_difficulty));
    r.machine_failed = !prompted;
    const bool recovered_by_prompt =
        !detected_unaided && prompted && rng.bernoulli(prompt_attention_);
    r.detected = detected_unaided || recovered_by_prompt;
    r.misclassified =
        r.detected && rng.bernoulli(reader_.misclassification_probability(
                          human_difficulty));
    r.system_failed = !r.detected || r.misclassified;
  }
}

std::vector<ParallelProcedureRecord> ParallelProcedureWorld::run(
    std::uint64_t cases, stats::Rng& rng) {
  if (cases == 0) {
    throw std::invalid_argument("ParallelProcedureWorld: cases == 0");
  }
  std::vector<ParallelProcedureRecord> out(
      static_cast<std::size_t>(cases));
  simulate_batch(out, rng);
  return out;
}

CaseClassSpec ParallelProcedureWorld::scaled_spec(
    std::size_t class_index) const {
  CaseClassSpec spec = generator_.spec(class_index);
  spec.human_difficulty_sigma *= within_class_scale_;
  spec.machine_difficulty_sigma *= within_class_scale_;
  return spec;
}

core::ParallelDetectionModel ParallelProcedureWorld::ground_truth() const {
  const std::vector<double> kinks = reader_.misclassification_kinks();
  const double slope = std::max(cadt_.config().sensitivity_slope,
                                reader_.config().detection_slope);
  std::vector<core::ParallelClassConditional> params;
  params.reserve(class_count());
  for (std::size_t x = 0; x < class_count(); ++x) {
    const auto [machine_miss, human_miss, detected_mass, misclass_mass] =
        expect_over_difficulties(
            scaled_spec(x), kinks, slope, [&](double human, double machine) {
          const double p_unaided = reader_.unaided_detection_probability(human);
          const double p_prompt = cadt_.prompt_probability(machine);
          const double p_detected =
              p_unaided + (1.0 - p_unaided) * p_prompt * prompt_attention_;
          return std::array{
              1.0 - p_prompt, 1.0 - p_unaided, p_detected,
              p_detected * reader_.misclassification_probability(human)};
        });
    core::ParallelClassConditional c;
    c.p_machine_misses = machine_miss;
    c.p_human_misses = human_miss;
    c.p_human_misclassifies =
        detected_mass > 0.0 ? misclass_mass / detected_mass : 0.0;
    params.push_back(c);
  }
  return core::ParallelDetectionModel(class_names(), std::move(params));
}

double ParallelProcedureWorld::exact_system_failure() const {
  const std::vector<double> kinks = reader_.misclassification_kinks();
  const double slope = std::max(cadt_.config().sensitivity_slope,
                                reader_.config().detection_slope);
  double total = 0.0;
  for (std::size_t x = 0; x < class_count(); ++x) {
    const auto [failure] = expect_over_difficulties(
        scaled_spec(x), kinks, slope, [&](double human, double machine) {
          const double p_unaided = reader_.unaided_detection_probability(human);
          const double p_prompt = cadt_.prompt_probability(machine);
          const double p_detected =
              p_unaided + (1.0 - p_unaided) * p_prompt * prompt_attention_;
          const double p_misclass =
              reader_.misclassification_probability(human);
          return std::array{(1.0 - p_detected) + p_detected * p_misclass};
        });
    total += generator_.profile()[x] * failure;
  }
  return total;
}

ParallelEstimate estimate_parallel_model(
    const std::vector<ParallelProcedureRecord>& records,
    const std::vector<std::string>& class_names) {
  const std::size_t k = class_names.size();
  if (k == 0) {
    throw std::invalid_argument("estimate_parallel_model: no classes");
  }
  struct Counts {
    std::uint64_t cases = 0, machine_missed = 0, human_missed = 0;
    std::uint64_t detected = 0, misclassified = 0;
    std::uint64_t system_failed = 0;
  };
  std::vector<Counts> counts(k);
  std::uint64_t failures = 0;
  for (const auto& r : records) {
    if (r.class_index >= k) {
      throw std::invalid_argument(
          "estimate_parallel_model: record class out of range");
    }
    Counts& c = counts[r.class_index];
    ++c.cases;
    c.machine_missed += r.machine_failed ? 1 : 0;
    c.human_missed += r.human_missed ? 1 : 0;
    c.detected += r.detected ? 1 : 0;
    c.misclassified += r.misclassified ? 1 : 0;
    failures += r.system_failed ? 1 : 0;
  }
  ParallelEstimate out;
  out.class_names = class_names;
  out.classes.resize(k);
  for (std::size_t x = 0; x < k; ++x) {
    const Counts& c = counts[x];
    if (c.cases == 0) {
      throw std::invalid_argument("estimate_parallel_model: class '" +
                                  class_names[x] + "' has no cases");
    }
    if (c.detected == 0) {
      throw std::invalid_argument(
          "estimate_parallel_model: class '" + class_names[x] +
          "' has no detected cases; pHmisclass is unidentifiable");
    }
    out.classes[x].p_machine_misses =
        static_cast<double>(c.machine_missed) / static_cast<double>(c.cases);
    out.classes[x].p_human_misses =
        static_cast<double>(c.human_missed) / static_cast<double>(c.cases);
    out.classes[x].p_human_misclassifies =
        static_cast<double>(c.misclassified) /
        static_cast<double>(c.detected);
  }
  out.observed_system_failure =
      records.empty() ? 0.0
                      : static_cast<double>(failures) /
                            static_cast<double>(records.size());
  return out;
}

}  // namespace hmdiv::sim
