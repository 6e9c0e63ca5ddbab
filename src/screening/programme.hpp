// Screening programme simulation: population × policy → metrics & cost.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/config.hpp"
#include "screening/metrics.hpp"
#include "screening/policies.hpp"
#include "screening/population.hpp"
#include "stats/rng.hpp"

namespace hmdiv::screening {

/// Result of simulating one policy over a population.
struct ProgrammeResult {
  std::string policy_name;
  ConfusionCounts counts;
  ProgrammeMetrics metrics;
  double cost_per_case = 0.0;
};

/// Runs one policy over `case_count` screened cases.
[[nodiscard]] ProgrammeResult run_programme(PopulationGenerator population,
                                            ReadingPolicy& policy,
                                            std::uint64_t case_count,
                                            const CostModel& costs,
                                            stats::Rng& rng);

/// Runs every policy over the same number of cases (each with its own
/// deterministic RNG stream split from `rng`, so results are comparable
/// and reproducible). Policy i is one pool task on `rng.split(i + 1)` and
/// lands in result i, so the results are bit-identical at any thread count.
/// Each task drives its own policy object only, and exceptions from a task
/// (e.g. `case_count` 0) reach the caller.
[[nodiscard]] std::vector<ProgrammeResult> compare_policies(
    const PopulationGenerator& population,
    const std::vector<std::unique_ptr<ReadingPolicy>>& policies,
    std::uint64_t case_count, const CostModel& costs, stats::Rng& rng,
    const exec::Config& config = {});

}  // namespace hmdiv::screening
