// Cluster sharding of TabularWorld Monte-Carlo trials.
//
// The "sim.trial" shard workload ships a (SequentialModel, DemandProfile,
// case_count, seed) description to each worker as IEEE-754 bit patterns;
// workers rebuild the world through the bit-exact from_normalised path,
// run their wire::shard_range slice of the fixed batch index space with
// TrialRunner::run_batches, and return the per-case records. The
// coordinator's concatenation (ascending shard order) is bit-identical to
// TrialRunner::run(seed, config) in one process.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"

namespace hmdiv::exec {
class ClusterRunner;
}  // namespace hmdiv::exec

namespace hmdiv::sim {

/// Shard-workload name trial runs are registered under.
inline constexpr std::string_view kTrialShardWorkload = "sim.trial";

/// Largest case_count a worker accepts from one task blob (checked while
/// decoding, before anything is sized from it): 50 times the CLI's
/// profiling trial, at most 160 MB of records in a worker that runs the
/// whole trial. Larger trials belong to TabularWorld::simulate_counts.
inline constexpr std::uint64_t kMaxTrialShardCases = 10'000'000;

/// Runs a `case_count`-case trial on `world` across remote hmdiv_serve
/// workers via `cluster` (DESIGN.md §15). Output is bit-identical to
/// TrialRunner(world, case_count).run(seed) at any worker × shard ×
/// thread composition. Throws exec::ClusterError when no healthy worker
/// can finish a shard, and exec::wire::ProtocolError on a malformed reply.
[[nodiscard]] TrialData run_trial_clustered(const TabularWorld& world,
                                            std::uint64_t case_count,
                                            std::uint64_t seed,
                                            exec::ClusterRunner& cluster);

/// No-op anchor: calling it from an executable forces this translation
/// unit (and its static ShardWorkloadRegistration) to link in, so daemons
/// built against the static libraries can serve "sim.trial" shard tasks.
void ensure_trial_shard_registered();

}  // namespace hmdiv::sim
