// Batched-kernel contract tests (DESIGN.md §8): the scalar simulate_case
// path is the reference implementation of each world's case distribution;
// simulate_batch may consume randomness in a different order but must be
// distributionally equivalent (chi-square on the class mix, two-proportion
// z-tests on the failure rates). A batched trial run must be *bit*-identical
// to the per-batch substream layout built by hand — the batched (seed,
// batch-substream) layout is the single golden stream per world.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/paper_example.hpp"
#include "sim/feature_world.hpp"
#include "sim/parallel_world.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "stats/hypothesis.hpp"
#include "stats/rng.hpp"

namespace hmdiv::sim {
namespace {

// Distributional tests use fixed seeds, so these are deterministic checks,
// not flaky ones: the thresholds just have to clear the realised p-values.
constexpr double kAlpha = 1e-3;

bool same_record(const CaseRecord& a, const CaseRecord& b) {
  return a.class_index == b.class_index &&
         a.machine_failed == b.machine_failed &&
         a.human_failed == b.human_failed;
}

std::uint64_t machine_failures(const std::vector<CaseRecord>& records) {
  std::uint64_t n = 0;
  for (const auto& r : records) n += r.machine_failed ? 1 : 0;
  return n;
}

std::uint64_t human_failures(const std::vector<CaseRecord>& records) {
  std::uint64_t n = 0;
  for (const auto& r : records) n += r.human_failed ? 1 : 0;
  return n;
}

TEST(BatchSim, TabularBatchClassMixMatchesProfile) {
  TabularWorld world(core::paper::example_model(),
                     core::paper::trial_profile());
  std::vector<CaseRecord> records(200000);
  stats::Rng rng(11);
  world.simulate_batch(records, rng);
  std::vector<std::uint64_t> counts(world.class_count(), 0);
  for (const auto& r : records) ++counts[r.class_index];
  std::vector<double> expected(world.class_count());
  for (std::size_t x = 0; x < expected.size(); ++x) {
    expected[x] = world.profile().probability(x);
  }
  const auto gof = stats::chi_square_goodness_of_fit(counts, expected);
  EXPECT_GT(gof.p_value, kAlpha);
}

TEST(BatchSim, TabularBatchFailureRatesMatchScalarReference) {
  TabularWorld world(core::paper::example_model(),
                     core::paper::trial_profile());
  constexpr std::size_t kCases = 200000;

  std::vector<CaseRecord> batched(kCases);
  stats::Rng batch_rng(12);
  world.simulate_batch(batched, batch_rng);

  std::vector<CaseRecord> scalar(kCases);
  stats::Rng scalar_rng(13);
  for (auto& record : scalar) record = world.simulate_case(scalar_rng);

  const auto machine = stats::two_proportion_z_test(
      machine_failures(batched), kCases, machine_failures(scalar), kCases);
  EXPECT_GT(machine.p_value, kAlpha);
  const auto human = stats::two_proportion_z_test(
      human_failures(batched), kCases, human_failures(scalar), kCases);
  EXPECT_GT(human.p_value, kAlpha);
}

TEST(BatchSim, FeatureWorldBatchSharesTheScalarStream) {
  // FeatureWorld's batch kernel is the scalar loop on a copy, so batch
  // and scalar agree bit-for-bit, not merely in distribution.
  FeatureWorld batch_world = reference_feature_world();
  FeatureWorld scalar_world = reference_feature_world();
  stats::Rng batch_rng(21), scalar_rng(21);
  std::vector<CaseRecord> batched(5000);
  batch_world.simulate_batch(batched, batch_rng);
  for (const auto& record : batched) {
    EXPECT_TRUE(same_record(record, scalar_world.simulate_case(scalar_rng)));
  }
  EXPECT_EQ(batch_rng.next_u64(), scalar_rng.next_u64());
}

TEST(BatchSim, ParallelWorldBatchMatchesScalarDistribution) {
  const FeatureWorld base = reference_feature_world();
  const ParallelProcedureWorld world(base.generator(), base.cadt(),
                                     base.reader());
  constexpr std::size_t kCases = 200000;

  stats::Rng batch_rng(31);
  std::vector<ParallelProcedureRecord> batched(kCases);
  world.simulate_batch(batched, batch_rng);

  stats::Rng scalar_rng(32);
  ParallelProcedureWorld scalar_world(base.generator(), base.cadt(),
                                      base.reader());
  std::vector<ParallelProcedureRecord> scalar(kCases);
  for (auto& record : scalar) record = scalar_world.simulate_case(scalar_rng);

  std::vector<std::uint64_t> counts(world.class_count(), 0);
  for (const auto& r : batched) ++counts[r.class_index];
  std::vector<double> expected(world.class_count());
  for (std::size_t x = 0; x < expected.size(); ++x) {
    expected[x] = base.generator().profile().probability(x);
  }
  const auto gof = stats::chi_square_goodness_of_fit(counts, expected);
  EXPECT_GT(gof.p_value, kAlpha);

  const auto count_of = [](const std::vector<ParallelProcedureRecord>& rs,
                           auto field) {
    std::uint64_t n = 0;
    for (const auto& r : rs) n += field(r) ? 1 : 0;
    return n;
  };
  for (const auto& field : {
           +[](const ParallelProcedureRecord& r) { return r.machine_failed; },
           +[](const ParallelProcedureRecord& r) { return r.human_missed; },
           +[](const ParallelProcedureRecord& r) { return r.system_failed; },
       }) {
    const auto test = stats::two_proportion_z_test(
        count_of(batched, field), kCases, count_of(scalar, field), kCases);
    EXPECT_GT(test.p_value, kAlpha);
  }
}

TEST(BatchSim, TrialRunIsThePerBatchSubstreamLayout) {
  TabularWorld world(core::paper::example_model(),
                     core::paper::trial_profile());
  // Mixed full/partial batches, more of them than threads.
  const std::uint64_t cases = 5 * TrialRunner::kBatchSize + 123;
  const std::uint64_t seed = 20030623;

  // Baseline: the documented per-batch scheme, built by hand — one
  // Rng(seed, batch) substream per kBatchSize slice, all on the one world.
  std::vector<CaseRecord> baseline(cases);
  for (std::uint64_t batch = 0, begin = 0; begin < cases; ++batch) {
    const std::uint64_t end = std::min(cases, begin + TrialRunner::kBatchSize);
    stats::Rng batch_rng(seed, batch);
    world.simulate_batch(
        std::span<CaseRecord>(baseline).subspan(begin, end - begin),
        batch_rng);
    begin = end;
  }

  TrialRunner runner(world, cases);
  for (const unsigned threads : {1u, 4u}) {
    const TrialData data = runner.run(seed, exec::Config{threads});
    ASSERT_EQ(data.records.size(), baseline.size()) << threads;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_TRUE(same_record(data.records[i], baseline[i]))
          << "threads " << threads << " case " << i;
    }
  }
}

TEST(BatchSim, AdaptingWorldRestartsEveryBatchFromItsOwnState) {
  // An adapting reader changes the world it simulates. Every batch of a
  // trial run starts from the world's own state, and the run leaves that
  // state unchanged, at any thread count.
  const FeatureWorld reference = reference_feature_world();
  ReaderModel::Config adapting = reference.reader().config();
  adapting.adaptation_rate = 0.05;
  FeatureWorld world(reference.generator(), reference.cadt(),
                     ReaderModel(adapting));
  const double reliance = world.reader().reliance();
  const std::uint64_t cases = 3 * TrialRunner::kBatchSize + 17;
  const std::uint64_t seed = 20030624;

  // Baseline: each batch runs the scalar path on a fresh copy of the world
  // with substream Rng(seed, batch).
  std::vector<CaseRecord> baseline;
  for (std::uint64_t batch = 0; baseline.size() < cases; ++batch) {
    FeatureWorld fresh = world;
    stats::Rng batch_rng(seed, batch);
    const std::uint64_t end =
        std::min(cases, baseline.size() + TrialRunner::kBatchSize);
    while (baseline.size() < end) {
      baseline.push_back(fresh.simulate_case(batch_rng));
    }
    EXPECT_NE(fresh.reader().reliance(), reliance) << batch;  // it adapts
  }

  TrialRunner runner(world, cases);
  for (const unsigned threads : {1u, 4u}) {
    const TrialData data = runner.run(seed, exec::Config{threads});
    ASSERT_EQ(data.records.size(), baseline.size()) << threads;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_TRUE(same_record(data.records[i], baseline[i]))
          << "threads " << threads << " case " << i;
    }
  }
  EXPECT_EQ(world.reader().reliance(), reliance);
}

}  // namespace
}  // namespace hmdiv::sim
