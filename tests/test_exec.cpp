// Tests for the exec subsystem: thread-pool correctness (exceptions,
// empty ranges, nesting) and the determinism contract — every parallel
// Monte-Carlo / sweep entry point must produce bit-identical results at
// 1 and N threads.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/trial_design.hpp"
#include "core/uncertainty.hpp"
#include "exec/parallel.hpp"
#include "sim/feature_world.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "stats/bootstrap.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace hmdiv {
namespace {

const exec::Config kSerial{1};
const exec::Config kWide{8};

TEST(ExecConfig, ResolvedThreadsNeverZero) {
  EXPECT_GE(exec::Config{}.resolved_threads(), 1U);
  EXPECT_EQ(exec::Config{1}.resolved_threads(), 1U);
  EXPECT_EQ(exec::Config{3}.resolved_threads(), 3U);
}

TEST(ExecChunks, ChunkCountCoversRange) {
  EXPECT_EQ(exec::chunk_count(0, 10), 0U);
  EXPECT_EQ(exec::chunk_count(1, 10), 1U);
  EXPECT_EQ(exec::chunk_count(10, 10), 1U);
  EXPECT_EQ(exec::chunk_count(11, 10), 2U);
  EXPECT_EQ(exec::chunk_count(5, 0), 5U);  // zero grain treated as 1
}

TEST(ExecParallelFor, EmptyRangeIsNoOp) {
  int calls = 0;
  exec::parallel_for(0, 8, [&](std::size_t) { ++calls; }, kWide);
  EXPECT_EQ(calls, 0);
}

TEST(ExecParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  exec::parallel_for(
      kN, 64, [&](std::size_t i) { visits[i].fetch_add(1); }, kWide);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ExecParallelFor, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      exec::parallel_for(
          1000, 8,
          [](std::size_t i) {
            if (i == 500) throw std::runtime_error("boom");
          },
          kWide),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  exec::parallel_for(100, 8, [&](std::size_t) { ++count; }, kWide);
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecParallelFor, NestedUseRunsInline) {
  std::vector<std::atomic<int>> visits(64 * 64);
  exec::parallel_for(
      64, 1,
      [&](std::size_t outer) {
        exec::parallel_for(
            64, 1,
            [&](std::size_t inner) { visits[outer * 64 + inner].fetch_add(1); },
            kWide);
      },
      kWide);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ExecParallelReduce, OrderedSumMatchesSerial) {
  constexpr std::size_t kN = 100'000;
  std::vector<double> values(kN);
  stats::Rng rng(11);
  for (double& v : values) v = rng.uniform() - 0.5;
  auto sum_chunk = [&](std::size_t begin, std::size_t end, std::size_t) {
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) s += values[i];
    return s;
  };
  auto add = [](double a, double b) { return a + b; };
  const double serial =
      exec::parallel_reduce(kN, 512, 0.0, sum_chunk, add, kSerial);
  const double wide = exec::parallel_reduce(kN, 512, 0.0, sum_chunk, add, kWide);
  // Bit-identical, not just close: the fold order is fixed by the chunks.
  EXPECT_EQ(serial, wide);
}

TEST(ExecDeterminism, BootstrapIdenticalAcrossThreadCounts) {
  std::vector<double> sample(500);
  stats::Rng fill(21);
  for (double& v : sample) v = fill.normal(1.0, 2.0);
  const auto mean = [](std::span<const double> s) {
    return std::accumulate(s.begin(), s.end(), 0.0) /
           static_cast<double>(s.size());
  };
  stats::Rng rng_a(7), rng_b(7);
  const auto serial =
      stats::bootstrap_percentile(sample, mean, rng_a, 2000, 0.95, kSerial);
  const auto wide =
      stats::bootstrap_percentile(sample, mean, rng_b, 2000, 0.95, kWide);
  EXPECT_EQ(serial.estimate, wide.estimate);
  EXPECT_EQ(serial.lower, wide.lower);
  EXPECT_EQ(serial.upper, wide.upper);
  EXPECT_EQ(serial.standard_error, wide.standard_error);
  // Both consumed exactly one base draw from the caller's generator.
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(ExecDeterminism, UncertaintyPredictionIdenticalAcrossThreadCounts) {
  const core::PosteriorModelSampler sampler(
      {"easy", "difficult"},
      {core::ClassCounts{800, 56, 28, 40}, core::ClassCounts{200, 82, 74, 30}});
  const auto profile = core::paper::field_profile();
  stats::Rng rng_a(31), rng_b(31);
  const auto serial = sampler.predict(profile, rng_a, 4000, 0.95, kSerial);
  const auto wide = sampler.predict(profile, rng_b, 4000, 0.95, kWide);
  EXPECT_EQ(serial.mean, wide.mean);
  EXPECT_EQ(serial.lower, wide.lower);
  EXPECT_EQ(serial.upper, wide.upper);
  EXPECT_EQ(serial.stddev, wide.stddev);
}

TEST(ExecDeterminism, TrialRunIdenticalAcrossThreadCounts) {
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  // > 2 batches so the parallel path genuinely interleaves.
  sim::TrialRunner runner(world, 3 * sim::TrialRunner::kBatchSize + 123);
  const auto serial = runner.run(1234, kSerial);
  const auto wide = runner.run(1234, kWide);
  ASSERT_EQ(serial.records.size(), wide.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].class_index, wide.records[i].class_index);
    EXPECT_EQ(serial.records[i].machine_failed, wide.records[i].machine_failed);
    EXPECT_EQ(serial.records[i].human_failed, wide.records[i].human_failed);
  }
}

TEST(ExecDeterminism, FeatureWorldTrialIdenticalAcrossThreadCounts) {
  auto world = sim::reference_feature_world();
  world.set_adaptation_enabled(false);
  sim::TrialRunner runner(world, 2 * sim::TrialRunner::kBatchSize + 7);
  const auto serial = runner.run(99, kSerial);
  const auto wide = runner.run(99, kWide);
  ASSERT_EQ(serial.records.size(), wide.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].class_index, wide.records[i].class_index);
    EXPECT_EQ(serial.records[i].machine_failed, wide.records[i].machine_failed);
    EXPECT_EQ(serial.records[i].human_failed, wide.records[i].human_failed);
  }
}

core::TradeoffAnalyzer example_tradeoff() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.5};
  machine.normal_class_means = {-1.5, -0.5};
  auto cancer_profile = core::DemandProfile::from_weights(
      {"easy-cancer", "hard-cancer"}, {0.9, 0.1});
  auto normal_profile = core::DemandProfile::from_weights(
      {"clear-normal", "odd-normal"}, {0.8, 0.2});
  std::vector<core::HumanFnResponse> fn = {{0.1, 0.5}, {0.3, 0.7}};
  std::vector<core::HumanFpResponse> fp = {{0.1, 0.02}, {0.3, 0.1}};
  return core::TradeoffAnalyzer(machine, cancer_profile, fn, normal_profile,
                                fp, 0.01);
}

TEST(ExecDeterminism, TradeoffSweepIdenticalAcrossThreadCounts) {
  const auto analyzer = example_tradeoff();
  std::vector<double> thresholds;
  for (int i = 0; i <= 2000; ++i) {
    thresholds.push_back(-3.0 + 6.0 * static_cast<double>(i) / 2000.0);
  }
  const auto serial = analyzer.sweep(thresholds, kSerial);
  const auto wide = analyzer.sweep(thresholds, kWide);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].system_fn, wide[i].system_fn);
    EXPECT_EQ(serial[i].system_fp, wide[i].system_fp);
    EXPECT_EQ(serial[i].ppv, wide[i].ppv);
  }
  const auto best_serial =
      analyzer.minimise_cost(100.0, 1.0, -3.0, 3.0, 5000, kSerial);
  const auto best_wide =
      analyzer.minimise_cost(100.0, 1.0, -3.0, 3.0, 5000, kWide);
  EXPECT_EQ(best_serial.threshold, best_wide.threshold);
  EXPECT_EQ(best_serial.system_fn, best_wide.system_fn);
}

TEST(ExecDeterminism, DesignCurveMatchesPointwiseCalls) {
  const auto model = core::paper::example_model();
  const auto field = core::paper::field_profile();
  std::vector<double> budgets;
  for (double b = 100.0; b <= 5000.0; b += 100.0) budgets.push_back(b);
  const auto curve = core::design_curve(model, field, budgets, kWide);
  ASSERT_EQ(curve.size(), budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const auto direct = core::optimal_allocation(model, field, budgets[i]);
    EXPECT_EQ(curve[i].predicted_standard_error,
              direct.predicted_standard_error);
    ASSERT_EQ(curve[i].cases.size(), direct.cases.size());
    for (std::size_t x = 0; x < direct.cases.size(); ++x) {
      EXPECT_EQ(curve[i].cases[x], direct.cases[x]);
    }
  }
}

}  // namespace
}  // namespace hmdiv
