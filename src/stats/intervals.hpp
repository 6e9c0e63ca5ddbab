// Binomial proportion confidence interval (Wilson score).
//
// The simulated-trial estimator reports each model parameter (PMf, PHf|Mf,
// PHf|Ms per class of cases) with an interval; the paper assumes "narrow
// enough confidence intervals can be obtained for all parameters" — the
// bench for Table 1 makes that assumption checkable.
#pragma once

#include <cstdint>

namespace hmdiv::stats {

/// A two-sided confidence interval for a proportion, clipped to [0,1].
struct ProportionInterval {
  double lower = 0.0;
  double upper = 1.0;

  [[nodiscard]] bool contains(double p) const {
    return p >= lower && p <= upper;
  }
  [[nodiscard]] double width() const { return upper - lower; }
};

/// Wilson score interval — good coverage across the range, including small
/// n and extreme p; the interval the trial estimator reports.
[[nodiscard]] ProportionInterval wilson_interval(std::uint64_t successes,
                                                 std::uint64_t trials,
                                                 double confidence = 0.95);

}  // namespace hmdiv::stats
