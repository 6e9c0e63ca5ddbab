// Nonparametric bootstrap for statistics of i.i.d. samples, used to put
// intervals on derived quantities (e.g. the importance index t(x) or the
// covariance term of Eq. (10)) for which no closed-form interval exists.
//
// Replicates run in parallel on the exec engine: replicate r draws from
// the substream Rng(base, r), where `base` is one 64-bit draw from the
// caller's generator, so results are bit-identical for any thread count
// (the caller's rng advances by exactly one step either way).
//
// bootstrap_percentile resamples cases one by one; bootstrap_counts
// resamples a table of cell counts in one multinomial draw (DESIGN.md
// §17), for statistics that depend only on those counts.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/config.hpp"

namespace hmdiv::stats {

class Rng;

/// Result of a bootstrap run: point estimate on the original sample plus a
/// percentile interval of the resampled statistic.
struct BootstrapResult {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  /// Bootstrap standard error (stddev of the resampled statistic).
  double standard_error = 0.0;
};

/// A statistic maps a sample (span of doubles) to a scalar.
using Statistic = std::function<double(std::span<const double>)>;

/// Percentile bootstrap with `replicates` resamples at level `confidence`.
/// Throws if the sample is empty or replicates == 0.
[[nodiscard]] BootstrapResult bootstrap_percentile(
    std::span<const double> sample, const Statistic& statistic, Rng& rng,
    std::size_t replicates = 2000, double confidence = 0.95,
    const exec::Config& config = {});

/// A statistic of a table of cell counts (e.g. the K×4 class × machine ×
/// human outcome table of a trial).
using CountStatistic = std::function<double(std::span<const std::uint64_t>)>;

/// Cell-resampling bootstrap: the case-resampling bootstrap of any
/// statistic that depends on a sample only through its cell counts. The
/// N = Σ cells cases are resampled as one Multinomial(N, cells / N) draw
/// per replicate, from substream Rng(base, r) like bootstrap_percentile,
/// so a replicate costs O(cells) instead of O(N) and the result is
/// bit-identical at any thread count. The same distribution as resampling
/// the N cases one by one, not the same stream. Throws if every cell is
/// empty or replicates == 0.
[[nodiscard]] BootstrapResult bootstrap_counts(
    std::span<const std::uint64_t> cells, const CountStatistic& statistic,
    Rng& rng, std::size_t replicates = 2000, double confidence = 0.95,
    const exec::Config& config = {});

}  // namespace hmdiv::stats
