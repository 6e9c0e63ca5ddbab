// stats layer adapter: the only place the benchmark calls into src/stats.
#pragma once

#include <cstdint>
#include <span>

#include "adapters/trace.hpp"
#include "exec/config.hpp"
#include "stats/bootstrap.hpp"
#include "stats/rng.hpp"

namespace perfbench::stats_layer {

/// Percentile bootstrap of the sample mean, as `hmdiv_analyze --profile`
/// runs it on the simulated trial's failure indicators.
inline hmdiv::stats::BootstrapResult bootstrap_mean(
    std::span<const double> sample, std::uint64_t seed,
    std::size_t replicates, unsigned threads) {
  const auto mean = [](std::span<const double> s) {
    double total = 0.0;
    for (const double v : s) total += v;
    return total / static_cast<double>(s.size());
  };
  trace::Span span("stats.bootstrap");
  hmdiv::stats::Rng rng(seed);
  return hmdiv::stats::bootstrap_percentile(sample, mean, rng, replicates,
                                            0.95, hmdiv::exec::Config{threads});
}

}  // namespace perfbench::stats_layer
