// Uncertainty propagation from trial counts to the system-level prediction.
//
// The paper assumes "narrow enough confidence intervals can be obtained for
// all parameters" — this module drops that assumption. Each parameter is
// given a Beta posterior from its trial counts (Jeffreys prior by default);
// Monte-Carlo draws propagate through Eq. (8) to a distribution of the
// predicted system failure probability, reported as mean + equal-tailed
// credible interval. This shows how trial size limits the precision of
// field predictions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "exec/config.hpp"
#include "stats/rng.hpp"

namespace hmdiv::core {

/// Trial evidence for one class: counts from which the three conditional
/// parameters are estimated.
struct ClassCounts {
  /// Cases of this class in the trial (cancer cases; FN analysis only).
  std::uint64_t cases = 0;
  /// Cases on which the machine failed (no prompt of the relevant features).
  std::uint64_t machine_failures = 0;
  /// Human (= system) failures among the machine-failure cases.
  std::uint64_t human_failures_given_machine_failed = 0;
  /// Human failures among the machine-success cases.
  std::uint64_t human_failures_given_machine_succeeded = 0;

  /// True iff no failure count exceeds the cases it conditions on.
  [[nodiscard]] bool consistent() const {
    return machine_failures <= cases &&
           human_failures_given_machine_failed <= machine_failures &&
           human_failures_given_machine_succeeded <= cases - machine_failures;
  }
};

/// A propagated prediction: posterior mean and credible interval.
struct UncertainPrediction {
  double mean = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double stddev = 0.0;
  [[nodiscard]] double width() const { return upper - lower; }
};

/// Posterior sampler over SequentialModels given per-class trial counts.
///
/// Each parameter gets an independent Beta(k + a, n − k + a) posterior with
/// Jeffreys constant a = 0.5.
class PosteriorModelSampler {
 public:
  /// One ClassCounts per class name. Validates count consistency:
  /// machine_failures <= cases, human failure counts bounded by their
  /// denominators.
  PosteriorModelSampler(std::vector<std::string> class_names,
                        std::vector<ClassCounts> counts);

  [[nodiscard]] std::size_t class_count() const { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& class_names() const {
    return names_;
  }
  /// The trial evidence this sampler was built from — integers, so a
  /// sampler rebuilt from them (e.g. in a shard worker) has bit-identical
  /// posterior preps.
  [[nodiscard]] const std::vector<ClassCounts>& counts() const {
    return counts_;
  }

  /// Posterior-mean model (each parameter at its Beta posterior mean).
  [[nodiscard]] SequentialModel posterior_mean_model() const;

  /// Draws one model from the joint (independent-Beta) posterior.
  [[nodiscard]] SequentialModel sample(stats::Rng& rng) const;

  /// Propagates `draws` posterior samples through Eq. (8) under `profile`:
  /// sample_failure_probabilities() into workspace scratch, then
  /// summarise(). Batched engine — equivalent to predict_reference() in
  /// distribution, NOT bitwise (see that method); bit-identical across
  /// thread counts for a fixed `rng` state (the caller's rng advances by
  /// exactly one step either way).
  [[nodiscard]] UncertainPrediction predict(
      const DemandProfile& profile, stats::Rng& rng, std::size_t draws = 4000,
      double credibility = 0.95,
      const exec::Config& config = {}) const;

  /// Scalar reference for predict(): one substream Rng(base, i) per draw,
  /// three scalar Beta draws per class per draw, full evaluation of
  /// Eq. (8) per replicate, and the pre-batched-engine extraction (full
  /// std::sort + sorted_quantile) kept verbatim. Documented ground truth
  /// AND cost baseline for the batched engine; the two are equivalent in
  /// distribution (asserted by chi-square/KS/z statistical-equivalence
  /// tests), not bitwise — the batched kernels consume the stream in a
  /// different order and use an inverse-CDF normal instead of the polar
  /// method.
  [[nodiscard]] UncertainPrediction predict_reference(
      const DemandProfile& profile, stats::Rng& rng, std::size_t draws = 4000,
      double credibility = 0.95,
      const exec::Config& config = {}) const;

  /// Fills `out` with posterior predictive draws of the system failure
  /// probability under `profile` — the batched sampling stage of
  /// predict(). Chunk c of `out` (fixed 512-draw chunks) draws from the
  /// substream Rng(base, c) with `base` taken from `rng` (one step), so
  /// the output is bit-identical at 1 vs N threads. Per parameter, whole
  /// chunks are filled by Rng::fill_beta and streamed through the SoA
  /// Eq. (8) transform; per-chunk scratch comes from
  /// exec::thread_workspace() (zero steady-state heap allocations).
  void sample_failure_probabilities(
      const DemandProfile& profile, stats::Rng& rng, std::span<double> out,
      const exec::Config& config = {}) const;

  /// Fixed substream grain of the batched sampler: chunk c always covers
  /// draws [512c, 512c + 512) of a run, regardless of parallelism. This is
  /// the index space the cluster's core.uq.sample workload partitions.
  static constexpr std::size_t kDrawChunk = 512;

  /// Chunks a `draws`-sized run decomposes into — ceil(draws / kDrawChunk).
  [[nodiscard]] static std::size_t draw_chunk_count(std::size_t draws);

  /// Computes only chunks [first_chunk, last_chunk) of a `total_draws`-draw
  /// run whose substream base is `base` (the value sample_failure_
  /// probabilities takes from its rng). `out` receives draws
  /// [512·first_chunk, min(512·last_chunk, total_draws)) and must be sized
  /// exactly. Ranges that partition [0, draw_chunk_count(total_draws))
  /// concatenate to the bit-identical full run — the shard workers' entry
  /// point.
  void sample_failure_probability_chunks(
      const DemandProfile& profile, std::uint64_t base,
      std::size_t total_draws, std::size_t first_chunk,
      std::size_t last_chunk, std::span<double> out,
      const exec::Config& config = {}) const;

  /// Reduces a vector of posterior predictive draws to mean, stddev and an
  /// equal-tailed credible interval. Partially reorders `draws` in place
  /// (selection-based stats::quantiles — no full sort). Any NaN draw makes
  /// every field of the result NaN: uncertainty about an undefined
  /// quantity is undefined, never silently clamped.
  [[nodiscard]] static UncertainPrediction summarise(std::span<double> draws,
                                                     double credibility);

 private:
  std::vector<std::string> names_;
  std::vector<ClassCounts> counts_;
  /// Memoised per-parameter Beta posterior normalisers: the (alpha, beta)
  /// Marsaglia–Tsang constants for each of the three conditionals of each
  /// class, in draw order (pmf, phf|mf, phf|ms) — 6 preps per class.
  /// predict() streams over these instead of re-deriving them per draw.
  std::vector<stats::Rng::GammaPrep> beta_prep_;
};

}  // namespace hmdiv::core
