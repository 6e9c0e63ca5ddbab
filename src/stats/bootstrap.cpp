#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/parallel.hpp"
#include "exec/workspace.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace hmdiv::stats {

namespace {

/// Replicates per chunk: large enough to amortise scheduling over the
/// statistic evaluations, small enough that 2000 replicates still split
/// into ~125 chunks for wide machines.
constexpr std::size_t kReplicateGrain = 16;

/// Partially reorders `replicates` in place (workspace scratch — nothing
/// else reads it afterwards) and derives the interval summary. Quantiles
/// come from the shared selection-based stats::quantiles — no full sort,
/// and the same type-7 interpolation as the posterior credible intervals.
/// A NaN replicate yields a NaN interval and standard error: the statistic
/// is undefined, and a NaN must never be sorted to an arbitrary end.
BootstrapResult summarise(double estimate, std::span<double> replicates,
                          double confidence) {
  HMDIV_OBS_SCOPED_TIMER("stats.boot.summarise_ns");
  const double alpha = 1.0 - confidence;
  const double qs[2] = {alpha / 2.0, 1.0 - alpha / 2.0};
  double bounds[2];
  quantiles(replicates, qs, bounds);
  BootstrapResult out;
  out.estimate = estimate;
  out.lower = bounds[0];
  out.upper = bounds[1];
  OnlineStats stats;
  for (const double r : replicates) stats.add(r);
  out.standard_error = stats.stddev();
  return out;
}

void check_args(std::size_t sample_size, std::size_t replicates,
                double confidence) {
  if (sample_size == 0) throw std::invalid_argument("bootstrap: empty sample");
  if (replicates == 0) {
    throw std::invalid_argument("bootstrap: replicates == 0");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("bootstrap: confidence outside (0,1)");
  }
}

}  // namespace

BootstrapResult bootstrap_percentile(std::span<const double> sample,
                                     const Statistic& statistic, Rng& rng,
                                     std::size_t replicates, double confidence,
                                     const exec::Config& config) {
  check_args(sample.size(), replicates, confidence);
  HMDIV_OBS_SCOPED_TIMER("stats.bootstrap.run_ns");
  HMDIV_OBS_COUNT("stats.bootstrap.calls", 1);
  HMDIV_OBS_COUNT("stats.bootstrap.replicates", replicates);
  const double estimate = statistic(sample);
  // Replicate r resamples with its own substream Rng(base, r): the values
  // array is filled identically no matter how chunks map to threads.
  const std::uint64_t base = rng.next_u64();
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> values = workspace.alloc<double>(replicates);
  exec::parallel_for_chunks(
      replicates, kReplicateGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        // Per-worker scratch from the executing thread's arena, reused
        // across chunks after warm-up: every element is overwritten before
        // the statistic reads it, so reuse cannot leak data between
        // replicates (and the fill order is fixed by the substream, so
        // reuse cannot change the result either).
        exec::Workspace& local = exec::thread_workspace();
        const exec::Workspace::Scope chunk_scope(local);
        const std::span<double> resample =
            local.alloc<double>(sample.size());
        for (std::size_t r = begin; r < end; ++r) {
          Rng replicate_rng(base, r);
          for (double& v : resample) {
            v = sample[static_cast<std::size_t>(
                replicate_rng.uniform_index(sample.size()))];
          }
          values[r] = statistic(resample);
        }
      },
      config);
  return summarise(estimate, values, confidence);
}

BootstrapResult bootstrap_counts(std::span<const std::uint64_t> cells,
                                 const CountStatistic& statistic, Rng& rng,
                                 std::size_t replicates, double confidence,
                                 const exec::Config& config) {
  std::uint64_t cases = 0;
  for (const std::uint64_t c : cells) cases += c;
  check_args(static_cast<std::size_t>(cases), replicates, confidence);
  HMDIV_OBS_SCOPED_TIMER("stats.bootstrap.run_ns");
  HMDIV_OBS_COUNT("stats.bootstrap.calls", 1);
  HMDIV_OBS_COUNT("stats.bootstrap.replicates", replicates);
  const double estimate = statistic(cells);
  const std::uint64_t base = rng.next_u64();
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> values = workspace.alloc<double>(replicates);
  // The counts themselves are the multinomial weights: the running
  // remainder of integer weights stays exact, so the conditional ratios
  // carry no accumulated rounding.
  const std::span<double> weights = workspace.alloc<double>(cells.size());
  std::copy(cells.begin(), cells.end(), weights.begin());
  exec::parallel_for_chunks(
      replicates, kReplicateGrain,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        exec::Workspace& local = exec::thread_workspace();
        const exec::Workspace::Scope chunk_scope(local);
        const std::span<std::uint64_t> resample =
            local.alloc<std::uint64_t>(cells.size());
        for (std::size_t r = begin; r < end; ++r) {
          Rng replicate_rng(base, r);
          replicate_rng.multinomial(cases, weights, resample);
          values[r] = statistic(resample);
        }
      },
      config);
  return summarise(estimate, values, confidence);
}

}  // namespace hmdiv::stats
