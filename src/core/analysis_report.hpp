// One-call analysis reports: everything the paper's method produces for a
// model, rendered as markdown (for humans and docs) or plain text (for
// terminals). Used by the hmdiv_analyze CLI tool and handy in notebooks.
#pragma once

#include <optional>
#include <string>

#include "core/demand_profile.hpp"
#include "core/dual_model.hpp"
#include "core/sequential_model.hpp"

namespace hmdiv::core {

/// Report rendering options.
struct ReportOptions {
  bool include_design_advice = true;      ///< floor, leverage, best target
  bool markdown = true;                   ///< false = plain text tables
};

/// Full single-failure-mode analysis of `model` measured under `trial` and
/// deployed under `field` (the Section-5 situation): model parameters,
/// Eq. (8) failure probabilities, the Eq. (10) decomposition for both
/// profiles, field sensitivities and, unless disabled, design advice with
/// per-class what-if rows at the paper's 10x machine improvement. Throws
/// on class mismatches.
[[nodiscard]] std::string analysis_report(const SequentialModel& model,
                                          const DemandProfile& trial,
                                          const DemandProfile& field,
                                          const ReportOptions& options = {});

/// Two-sided (FN + FP) screening report for a DualModel.
[[nodiscard]] std::string dual_analysis_report(
    const DualModel& model, const OutcomeCosts& costs = {},
    bool markdown = true);

}  // namespace hmdiv::core
