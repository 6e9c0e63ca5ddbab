// Cluster sharding of trade-off analyses.
//
// Two shard workloads over the same serialized TradeoffAnalyzer:
//
//   "core.sweep"    — partition the threshold grid's index space; workers
//                     sweep their wire::shard_range slice with the batched
//                     kernel and ship the operating points back as bit
//                     patterns. evaluate_batch is bit-identical to the
//                     scalar evaluate() at any batch boundary, so the
//                     coordinator's ascending-order concatenation equals
//                     the single-process sweep bit-for-bit.
//   "core.minimise" — partition the cost-scan grid; workers return their
//                     range's best CostedOperatingPoint and the
//                     coordinator folds them in ascending shard order with
//                     strict <, preserving minimise_cost's
//                     earliest-grid-point tie rule exactly.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/tradeoff.hpp"

namespace hmdiv::exec {
class ClusterRunner;
}  // namespace hmdiv::exec

namespace hmdiv::core {

/// Shard-workload names the trade-off analyses register under.
inline constexpr std::string_view kSweepShardWorkload = "core.sweep";
inline constexpr std::string_view kMinimiseShardWorkload = "core.minimise";

/// Largest grid a worker accepts from one task blob, for the sweep's
/// threshold count and the minimisation's step count alike (checked while
/// decoding): hmdiv_analyze's --grid-steps ceiling.
inline constexpr std::uint64_t kMaxSweepShardPoints = 5'000'000;

/// TradeoffAnalyzer::sweep across remote hmdiv_serve workers via `cluster`
/// (DESIGN.md §15). The points are bit-identical to analyzer.sweep at any
/// worker × shard × thread composition. Throws exec::ClusterError when no
/// healthy worker can finish a shard.
[[nodiscard]] std::vector<SystemOperatingPoint> sweep_clustered(
    const TradeoffAnalyzer& analyzer, const std::vector<double>& thresholds,
    exec::ClusterRunner& cluster);

/// TradeoffAnalyzer::minimise_cost across remote workers, folding the
/// per-task partial minima with the earliest-grid-point tie rule.
/// Bit-identical to the in-process scan.
[[nodiscard]] SystemOperatingPoint minimise_cost_clustered(
    const TradeoffAnalyzer& analyzer, double cost_fn, double cost_fp,
    double lo, double hi, std::size_t steps, exec::ClusterRunner& cluster);

/// No-op anchor: calling it from an executable forces this translation
/// unit (and its static ShardWorkloadRegistrations) to link in, so daemons
/// built against the static libraries can serve "core.sweep" and
/// "core.minimise" shard tasks.
void ensure_tradeoff_shard_registered();

}  // namespace hmdiv::core
