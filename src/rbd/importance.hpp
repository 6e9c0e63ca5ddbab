// Component importance measures for coherent structures.
//
// Birnbaum's importance measure [Birnbaum 1969] — the paper's reference [1]
// and the ancestor of its "importance index" t(x) — is the partial
// derivative of system success probability with respect to a component's
// success probability:
//
//   I_B(i) = P(system works | component i works)
//          - P(system works | component i fails)
//
// For the sequential model of Section 6.1, t(x) plays exactly this role for
// the machine "component", except that the human's conditional behaviour
// replaces structural independence.
#pragma once

#include <span>
#include <vector>

#include "rbd/structure.hpp"

namespace hmdiv::rbd {

/// Birnbaum importance of component `index`:
/// success(p with p_i := 1) − success(p with p_i := 0).
/// Uses enumeration when the structure shares components (exactness).
[[nodiscard]] double birnbaum_importance(const Structure& structure,
                                         std::span<const double> success,
                                         std::size_t index);

/// Birnbaum importance of every component.
[[nodiscard]] std::vector<double> birnbaum_importances(
    const Structure& structure, std::span<const double> success);

}  // namespace hmdiv::rbd
