// Trial protocol and data collection.
//
// A `World` is anything that can simulate the composite human-machine
// system on one demand and report the observable outcome: which class the
// case belonged to, whether the machine failed (no prompt on a cancer) and
// whether the human — hence the system — failed (no recall). A controlled
// trial (`TrialRunner`) presents `case_count` demands drawn from the
// trial's (enriched) profile and records per-case outcomes; the estimator
// (estimation.hpp) then fits the paper's model parameters from the records.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/demand_profile.hpp"
#include "exec/config.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {

/// The observable outcome of one demand.
struct CaseRecord {
  std::size_t class_index = 0;
  bool machine_failed = false;
  bool human_failed = false;
};

/// Interface: a simulatable composite human-machine system.
class World {
 public:
  virtual ~World() = default;

  /// Simulates one demand end-to-end. This scalar path is the *reference
  /// implementation* of the world's case distribution: batched overrides
  /// may consume randomness in a different order, but must produce the
  /// same distribution (checked by the distributional-equivalence tests
  /// in test_batch_sim.cpp).
  [[nodiscard]] virtual CaseRecord simulate_case(stats::Rng& rng) = 0;

  /// Simulates out.size() consecutive demands into `out`: the *canonical*
  /// draw stream for the world's batched trials. TrialRunner::run(seed,
  /// config) hands every batch to this one const kernel on the one world,
  /// from any pool thread at once, so there is exactly one golden stream
  /// per (world, seed, batch layout) regardless of thread count. The
  /// kernel may consume randomness in a different order from
  /// simulate_case (see DESIGN.md §8), and must leave the world unchanged:
  /// a world with per-run state (an adapting reader) simulates the batch
  /// on a local copy of itself, so every batch starts from its state.
  virtual void simulate_batch(std::span<CaseRecord> out,
                              stats::Rng& rng) const = 0;

  /// Number of demand classes the world can emit.
  [[nodiscard]] virtual std::size_t class_count() const = 0;

  /// Class names, aligned with CaseRecord::class_index.
  [[nodiscard]] virtual const std::vector<std::string>& class_names()
      const = 0;
};

/// Collected trial data.
struct TrialData {
  std::vector<std::string> class_names;
  std::vector<CaseRecord> records;

  /// Observed fraction of system failures.
  [[nodiscard]] double observed_failure_rate() const;
  /// Observed fraction of machine failures.
  [[nodiscard]] double observed_machine_failure_rate() const;
  /// Observed class counts (length = class_names.size()).
  [[nodiscard]] std::vector<std::uint64_t> class_histogram() const;
};

/// Runs a fixed-size trial against a world.
class TrialRunner {
 public:
  /// Cases per batch in the parallel run. Fixed (never derived from the
  /// thread count) so the batch decomposition — and hence the output — is
  /// identical at any parallelism.
  static constexpr std::uint64_t kBatchSize = 4096;

  /// `case_count` demands; the world defines the demand profile.
  TrialRunner(World& world, std::uint64_t case_count);

  /// Runs the whole trial on one thread; deterministic in `rng`. Cases
  /// share the single stream, and stateful worlds (e.g. an adapting
  /// reader) evolve across the entire run. This is the scalar *reference*
  /// path: it draws through simulate_case only, never simulate_batch, so
  /// it defines the distribution the batched path is tested against.
  [[nodiscard]] TrialData run(stats::Rng& rng);

  /// Runs the trial in fixed batches of kBatchSize cases on the exec
  /// engine: batch b runs the world's const batched kernel
  /// (simulate_batch) with substream Rng(seed, b), and records are merged
  /// in case order — bit-identical output for any thread count.
  [[nodiscard]] TrialData run(
      std::uint64_t seed,
      const exec::Config& config = {});

  /// Total fixed-size batches a run of this trial decomposes into —
  /// ceil(case_count / kBatchSize), the substream index space the shard
  /// engine partitions.
  [[nodiscard]] std::uint64_t batch_count() const;

  /// Runs only batches [first_batch, last_batch) of the batched scheme and
  /// returns their records in case order. run_batches(seed, 0,
  /// batch_count()) reproduces run(seed, ...)'s records exactly; a
  /// partition of the batch range reproduces them piecewise — each batch
  /// draws from substream Rng(seed, batch) wherever it executes, which is
  /// what lets shard workers compute disjoint slices that concatenate into
  /// the bit-identical single-process trial.
  [[nodiscard]] std::vector<CaseRecord> run_batches(
      std::uint64_t seed, std::uint64_t first_batch, std::uint64_t last_batch,
      const exec::Config& config = {});

 private:
  World& world_;
  std::uint64_t case_count_;
};

}  // namespace hmdiv::sim
