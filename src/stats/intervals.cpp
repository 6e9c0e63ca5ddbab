#include "stats/intervals.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/special.hpp"

namespace hmdiv::stats {

namespace {

double z_for(double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("confidence must lie in (0,1)");
  }
  return normal_quantile(0.5 + confidence / 2.0);
}

void check_counts(std::uint64_t successes, std::uint64_t trials) {
  if (trials == 0) throw std::invalid_argument("interval: trials == 0");
  if (successes > trials) {
    throw std::invalid_argument("interval: successes > trials");
  }
}

ProportionInterval clipped(double lo, double hi) {
  // std::max(0.0, NaN) returns 0.0 (the comparison is false), which would
  // silently turn an undefined endpoint into a confident-looking bound.
  // Propagate NaN instead; only finite endpoints are clipped to [0, 1].
  if (std::isnan(lo) || std::isnan(hi)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return ProportionInterval{nan, nan};
  }
  return ProportionInterval{std::max(0.0, lo), std::min(1.0, hi)};
}

}  // namespace

ProportionInterval wilson_interval(std::uint64_t successes,
                                   std::uint64_t trials, double confidence) {
  check_counts(successes, trials);
  const double z = z_for(confidence);
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return clipped(centre - half, centre + half);
}

}  // namespace hmdiv::stats
