#include "screening/programme.hpp"

#include <stdexcept>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace hmdiv::screening {

ProgrammeResult run_programme(PopulationGenerator population,
                              ReadingPolicy& policy, std::uint64_t case_count,
                              const CostModel& costs, stats::Rng& rng) {
  if (case_count == 0) {
    throw std::invalid_argument("run_programme: case_count == 0");
  }
  HMDIV_OBS_SCOPED_TIMER("screening.programme.run_ns");
  ProgrammeResult out;
  out.policy_name = policy.name();
  for (std::uint64_t i = 0; i < case_count; ++i) {
    const sim::Case c = population.generate(rng);
    const bool recalled = policy.decide_recall(c, rng);
    if (c.has_cancer) {
      (recalled ? out.counts.true_positives : out.counts.false_negatives) += 1;
    } else {
      (recalled ? out.counts.false_positives : out.counts.true_negatives) += 1;
    }
  }
  out.metrics = ProgrammeMetrics::from_counts(out.counts,
                                              policy.readings_per_case());
  out.cost_per_case = costs.cost_per_case(out.metrics, population.prevalence(),
                                          policy.uses_cadt());
  return out;
}

std::vector<ProgrammeResult> compare_policies(
    const PopulationGenerator& population,
    const std::vector<std::unique_ptr<ReadingPolicy>>& policies,
    std::uint64_t case_count, const CostModel& costs, stats::Rng& rng,
    const exec::Config& config) {
  std::vector<ProgrammeResult> out(policies.size());
  exec::parallel_for(
      policies.size(), 1,
      [&](std::size_t i) {
        stats::Rng stream = rng.split(i + 1);
        out[i] = run_programme(population, *policies[i], case_count, costs,
                               stream);
      },
      config);
  return out;
}

}  // namespace hmdiv::screening
