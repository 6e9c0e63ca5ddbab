// Rendering of models and analysis results as report::Table — the exact
// layouts the benches print next to the paper's tables.
#pragma once

#include <vector>

#include "core/demand_profile.hpp"
#include "core/design_advisor.hpp"
#include "core/sequential_model.hpp"
#include "report/table.hpp"

namespace hmdiv::core {

/// The paper's first Section-5 table: demand profiles + model parameters
/// per class (PMf, PMs, PHf|Mf, PHf|Ms).
[[nodiscard]] report::Table parameter_table(const SequentialModel& model,
                                            const DemandProfile& trial,
                                            const DemandProfile& field);

/// The paper's second Section-5 table: per-class and all-cases system
/// failure probabilities under trial and field profiles.
[[nodiscard]] report::Table failure_table(const SequentialModel& model,
                                          const DemandProfile& trial,
                                          const DemandProfile& field);

/// Improvement candidates ranked by the DesignAdvisor.
[[nodiscard]] report::Table improvement_table(
    const std::vector<ImprovementEffect>& effects);

}  // namespace hmdiv::core
