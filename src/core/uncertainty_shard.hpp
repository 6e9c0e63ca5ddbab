// Cluster sharding of posterior predictive sampling.
//
// The "core.uq.sample" shard workload partitions the batched sampler's
// fixed 512-draw chunk index space (PosteriorModelSampler::kDrawChunk)
// across workers. The coordinator consumes exactly one rng step for the
// substream base — the same step the in-process engine consumes — and
// each worker rebuilds the sampler from the integer trial counts (bit-
// identical Beta preps) plus the from_normalised profile, then fills its
// wire::shard_range slice of chunks. Concatenated in ascending shard
// order, the draws equal the single-process sample_failure_probabilities
// output bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/uncertainty.hpp"

namespace hmdiv::exec {
class ClusterRunner;
}  // namespace hmdiv::exec

namespace hmdiv::core {

/// Shard-workload name posterior sampling registers under.
inline constexpr std::string_view kUncertaintyShardWorkload =
    "core.uq.sample";

/// Largest total_draws a worker accepts from one task blob (checked while
/// decoding, before the draw buffer is sized): hmdiv_analyze's --samples
/// ceiling, at most 80 MB of draws in a worker that runs them all.
inline constexpr std::uint64_t kMaxUqShardDraws = 10'000'000;

/// PosteriorModelSampler::sample_failure_probabilities across remote
/// hmdiv_serve workers via `cluster` (DESIGN.md §15). `rng` advances by
/// exactly one step and `out` fills bit-identically to the in-process call
/// at any worker × shard × thread composition. Throws exec::ClusterError
/// when no healthy worker can finish a shard.
void sample_failure_probabilities_clustered(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::span<double> out, exec::ClusterRunner& cluster);

/// predict() on the clustered sampling stage: sample across remote
/// workers, then summarise in the coordinator. Bit-identical to the
/// in-process predict().
[[nodiscard]] UncertainPrediction predict_clustered(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::size_t draws, double credibility,
    exec::ClusterRunner& cluster);

/// No-op anchor: calling it from an executable forces this translation
/// unit (and its static ShardWorkloadRegistration) to link in, so daemons
/// built against the static libraries can serve "core.uq.sample" shard
/// tasks.
void ensure_uncertainty_shard_registered();

}  // namespace hmdiv::core
