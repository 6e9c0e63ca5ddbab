// exec layer adapter: the only place the benchmark reaches the cluster
// coordinator and the clustered entry points of the workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapters/trace.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/cluster.hpp"
#include "sim/trial_shard.hpp"
#include "stats/rng.hpp"

namespace perfbench::exec_layer {

/// Tallies summed over every worker of one coordinator.
struct Totals {
  std::uint64_t tasks = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t retries = 0;
};

/// One warm coordinator over `workers`, `threads` per task on each.
class Cluster {
 public:
  Cluster(std::vector<std::string> workers, unsigned threads) {
    hmdiv::exec::ClusterOptions options;
    options.workers = std::move(workers);
    options.threads = threads;
    runner_ = std::make_unique<hmdiv::exec::ClusterRunner>(std::move(options));
  }

  hmdiv::sim::TrialData trial(const hmdiv::sim::TabularWorld& world,
                              std::uint64_t cases, std::uint64_t seed) {
    trace::Span span("exec.cluster.trial");
    return hmdiv::sim::run_trial_clustered(world, cases, seed, *runner_);
  }

  std::vector<hmdiv::core::SystemOperatingPoint> sweep(
      const hmdiv::core::TradeoffAnalyzer& analyzer,
      const std::vector<double>& thresholds) {
    trace::Span span("exec.cluster.sweep");
    return hmdiv::core::sweep_clustered(analyzer, thresholds, *runner_);
  }

  hmdiv::core::SystemOperatingPoint minimise(
      const hmdiv::core::TradeoffAnalyzer& analyzer, std::size_t steps) {
    trace::Span span("exec.cluster.minimise");
    return hmdiv::core::minimise_cost_clustered(analyzer, 500.0, 20.0, -4.0,
                                                4.0, steps, *runner_);
  }

  hmdiv::core::UncertainPrediction predict(
      const hmdiv::core::PosteriorModelSampler& sampler,
      const hmdiv::core::DemandProfile& profile, std::uint64_t seed,
      std::size_t draws) {
    trace::Span span("exec.cluster.uq");
    hmdiv::stats::Rng rng(seed);
    return hmdiv::core::predict_clustered(sampler, profile, rng, draws, 0.95,
                                          *runner_);
  }

  [[nodiscard]] Totals totals() const {
    Totals t;
    for (const auto& w : runner_->worker_stats()) {
      t.tasks += w.tasks;
      t.bytes_out += w.bytes_out;
      t.bytes_in += w.bytes_in;
      t.retries += w.retries;
    }
    return t;
  }

 private:
  std::unique_ptr<hmdiv::exec::ClusterRunner> runner_;
};

}  // namespace perfbench::exec_layer
