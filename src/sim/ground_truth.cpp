#include "sim/ground_truth.hpp"

#include <stdexcept>

#include "obs/obs.hpp"
#include "stats/summary.hpp"

namespace hmdiv::sim {

core::SequentialModel ground_truth_model(const FeatureWorld& world,
                                         stats::Rng& rng,
                                         std::size_t samples_per_class) {
  if (samples_per_class == 0) {
    throw std::invalid_argument("ground_truth_model: samples_per_class == 0");
  }
  HMDIV_OBS_SCOPED_TIMER("sim.ground_truth.model_ns");
  const CaseGenerator& generator = world.generator();
  const CadtModel& cadt = world.cadt();
  const ReaderModel& reader = world.reader();

  std::vector<core::ClassConditional> params;
  params.reserve(world.class_count());
  for (std::size_t x = 0; x < world.class_count(); ++x) {
    stats::KahanAccumulator sum_mf, sum_mf_hf, sum_ms, sum_ms_hf;
    for (std::size_t i = 0; i < samples_per_class; ++i) {
      const auto [human_difficulty, machine_difficulty] =
          generator.sample_difficulties(x, rng);
      const double p_prompt = cadt.prompt_probability(machine_difficulty);
      const double p_fail_prompted =
          reader.failure_probability(human_difficulty, /*prompted=*/true);
      const double p_fail_silent =
          reader.failure_probability(human_difficulty, /*prompted=*/false);
      sum_mf.add(1.0 - p_prompt);
      sum_mf_hf.add((1.0 - p_prompt) * p_fail_silent);
      sum_ms.add(p_prompt);
      sum_ms_hf.add(p_prompt * p_fail_prompted);
    }
    core::ClassConditional c;
    const double n = static_cast<double>(samples_per_class);
    c.p_machine_fails = sum_mf.total() / n;
    c.p_human_fails_given_machine_fails =
        sum_mf.total() > 0.0 ? sum_mf_hf.total() / sum_mf.total() : 0.0;
    c.p_human_fails_given_machine_succeeds =
        sum_ms.total() > 0.0 ? sum_ms_hf.total() / sum_ms.total() : 0.0;
    params.push_back(c);
  }
  return core::SequentialModel(world.class_names(), std::move(params));
}

}  // namespace hmdiv::sim
