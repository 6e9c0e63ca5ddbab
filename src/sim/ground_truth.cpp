#include "sim/ground_truth.hpp"

#include <algorithm>
#include <array>

#include "obs/obs.hpp"
#include "sim/difficulty_quadrature.hpp"

namespace hmdiv::sim {

core::SequentialModel ground_truth_model(const FeatureWorld& world) {
  HMDIV_OBS_SCOPED_TIMER("sim.ground_truth.model_ns");
  const CadtModel& cadt = world.cadt();
  const ReaderModel& reader = world.reader();
  const std::vector<double> kinks = reader.misclassification_kinks();
  const double slope = std::max(cadt.config().sensitivity_slope,
                                reader.config().detection_slope);

  std::vector<core::ClassConditional> params;
  params.reserve(world.class_count());
  for (std::size_t x = 0; x < world.class_count(); ++x) {
    const auto [mf, mf_hf, ms, ms_hf] = expect_over_difficulties(
        world.generator().spec(x), kinks, slope,
        [&](double human_difficulty, double machine_difficulty) {
          const double p_prompt = cadt.prompt_probability(machine_difficulty);
          const double p_fail_prompted =
              reader.failure_probability(human_difficulty, /*prompted=*/true);
          const double p_fail_silent =
              reader.failure_probability(human_difficulty, /*prompted=*/false);
          return std::array{1.0 - p_prompt, (1.0 - p_prompt) * p_fail_silent,
                            p_prompt, p_prompt * p_fail_prompted};
        });
    core::ClassConditional c;
    c.p_machine_fails = mf;
    c.p_human_fails_given_machine_fails = mf > 0.0 ? mf_hf / mf : 0.0;
    c.p_human_fails_given_machine_succeeds = ms > 0.0 ? ms_hf / ms : 0.0;
    params.push_back(c);
  }
  return core::SequentialModel(world.class_names(), std::move(params));
}

}  // namespace hmdiv::sim
