// Batched-kernel contract tests (DESIGN.md §8): the scalar simulate_case
// path is the reference implementation of each world's case distribution;
// simulate_batch may consume randomness in a different order but must be
// distributionally equivalent (chi-square on the class mix, two-proportion
// z-tests on the failure rates). Clone reuse must be *bit*-identical to
// the per-batch fresh-clone scheme — the batched (seed, batch-substream)
// layout is the single golden stream per world.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
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

/// A world with only the scalar kernel, to pin down the base-class default.
class ScalarOnlyWorld final : public World {
 public:
  [[nodiscard]] CaseRecord simulate_case(stats::Rng& rng) override {
    CaseRecord record;
    record.class_index = rng.uniform() < 0.25 ? 1 : 0;
    record.machine_failed = rng.bernoulli(0.3);
    record.human_failed = rng.bernoulli(record.machine_failed ? 0.6 : 0.1);
    return record;
  }
  [[nodiscard]] std::size_t class_count() const override { return 2; }
  [[nodiscard]] const std::vector<std::string>& class_names() const override {
    static const std::vector<std::string> names{"easy", "difficult"};
    return names;
  }
  [[nodiscard]] std::unique_ptr<World> clone() const override {
    return std::make_unique<ScalarOnlyWorld>();
  }
};

TEST(BatchSim, DefaultBatchIsTheSequentialScalarLoop) {
  ScalarOnlyWorld world;
  stats::Rng batch_rng(7), scalar_rng(7);
  std::vector<CaseRecord> batched(1000);
  world.simulate_batch(batched, batch_rng);
  for (const auto& record : batched) {
    EXPECT_TRUE(same_record(record, world.simulate_case(scalar_rng)));
  }
  EXPECT_EQ(batch_rng.next_u64(), scalar_rng.next_u64());
}

TEST(BatchSim, DefaultCapabilityQueriesMatchCloneBehaviour) {
  ScalarOnlyWorld plain;
  EXPECT_NE(plain.clone(), nullptr);
  EXPECT_FALSE(plain.stateless());  // the base-class default

  TabularWorld tabular(core::paper::example_model(),
                       core::paper::trial_profile());
  EXPECT_NE(tabular.clone(), nullptr);
  EXPECT_TRUE(tabular.stateless());

  // The reference reader is static (adaptation_rate = 0), so the world is
  // stateless even with adaptation nominally enabled; give it a learning
  // rate and it becomes stateful until adaptation is frozen.
  const FeatureWorld reference = reference_feature_world();
  EXPECT_NE(reference.clone(), nullptr);
  EXPECT_TRUE(reference.stateless());
  ReaderModel::Config adapting = reference.reader().config();
  adapting.adaptation_rate = 0.1;
  FeatureWorld feature(reference.generator(), reference.cadt(),
                       ReaderModel(adapting));
  EXPECT_FALSE(feature.stateless());
  feature.set_adaptation_enabled(false);
  EXPECT_TRUE(feature.stateless());
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
  // FeatureWorld's batch kernel is the devirtualised scalar loop, so batch
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

TEST(BatchSim, CloneReuseIsBitIdenticalToClonePerBatch) {
  TabularWorld world(core::paper::example_model(),
                     core::paper::trial_profile());
  // Mixed full/partial batches, enough of them for real pool reuse.
  const std::uint64_t cases = 5 * TrialRunner::kBatchSize + 123;
  const std::uint64_t seed = 20030623;

  // Baseline: the documented per-batch scheme, built by hand — one fresh
  // clone and one Rng(seed, batch) substream per kBatchSize slice.
  std::vector<CaseRecord> baseline(cases);
  for (std::uint64_t batch = 0, begin = 0; begin < cases; ++batch) {
    const std::uint64_t end = std::min(cases, begin + TrialRunner::kBatchSize);
    const std::unique_ptr<World> clone = world.clone();
    stats::Rng batch_rng(seed, batch);
    clone->simulate_batch(
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

}  // namespace
}  // namespace hmdiv::sim
