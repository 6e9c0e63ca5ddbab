// Unit + integration tests for the screening programme layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "exec/config.hpp"
#include "obs/obs.hpp"
#include "screening/metrics.hpp"
#include "screening/policies.hpp"
#include "screening/population.hpp"
#include "screening/programme.hpp"
#include "sim/feature_world.hpp"
#include "sim/ground_truth.hpp"

namespace hmdiv::screening {
namespace {

TEST(Metrics, DerivedFromCounts) {
  ConfusionCounts c;
  c.true_positives = 90;
  c.false_negatives = 10;
  c.false_positives = 50;
  c.true_negatives = 9850;
  const auto m = ProgrammeMetrics::from_counts(c, 2.0);
  EXPECT_NEAR(m.sensitivity, 0.9, 1e-12);
  EXPECT_NEAR(m.specificity, 9850.0 / 9900.0, 1e-12);
  EXPECT_NEAR(m.recall_rate, 140.0 / 10000.0, 1e-12);
  EXPECT_NEAR(m.ppv, 90.0 / 140.0, 1e-12);
  EXPECT_NEAR(m.cancer_detection_rate_per_1000, 9.0, 1e-12);
  EXPECT_EQ(m.readings_per_case, 2.0);
}

TEST(Metrics, EmptyDenominatorsAreUndefinedNotZero) {
  // A rate over zero observations is unknown; a 0.0 default would read as
  // a real (and alarming) measurement. from_counts reports NaN instead.
  const auto m = ProgrammeMetrics::from_counts(ConfusionCounts{}, 1.0);
  EXPECT_TRUE(std::isnan(m.sensitivity));
  EXPECT_TRUE(std::isnan(m.specificity));
  EXPECT_TRUE(std::isnan(m.recall_rate));
  EXPECT_TRUE(std::isnan(m.ppv));
  EXPECT_TRUE(std::isnan(m.cancer_detection_rate_per_1000));
  EXPECT_EQ(m.readings_per_case, 1.0);
}

TEST(Metrics, PartialZeroDenominatorsOnlyBlankTheAffectedRates) {
  // All-healthy population, nothing recalled: sensitivity and PPV are
  // undefined, but specificity and the population rates are real numbers.
  ConfusionCounts c;
  c.true_negatives = 100;
  const auto m = ProgrammeMetrics::from_counts(c, 1.0);
  EXPECT_TRUE(std::isnan(m.sensitivity));
  EXPECT_TRUE(std::isnan(m.ppv));
  EXPECT_EQ(m.specificity, 1.0);
  EXPECT_EQ(m.recall_rate, 0.0);
  EXPECT_EQ(m.cancer_detection_rate_per_1000, 0.0);
}

TEST(CostModel, ComposesLinearly) {
  CostModel costs;
  costs.cost_per_reading = 2.0;
  costs.cost_per_recall = 10.0;
  costs.cost_per_missed_cancer = 100.0;
  costs.cost_per_case_cadt = 0.5;
  ProgrammeMetrics m;
  m.readings_per_case = 2.0;
  m.recall_rate = 0.05;
  m.sensitivity = 0.9;
  const double without = costs.cost_per_case(m, 0.01, false);
  EXPECT_NEAR(without, 2.0 * 2.0 + 0.05 * 10.0 + 0.01 * 0.1 * 100.0, 1e-12);
  EXPECT_NEAR(costs.cost_per_case(m, 0.01, true), without + 0.5, 1e-12);
  EXPECT_THROW(static_cast<void>(costs.cost_per_case(m, 1.5, false)),
               std::invalid_argument);
}

TEST(Population, ValidatesPrevalence) {
  EXPECT_THROW(PopulationGenerator::reference(0.0), std::invalid_argument);
  EXPECT_THROW(PopulationGenerator::reference(1.0), std::invalid_argument);
}

TEST(Population, PrevalenceIsRespected) {
  auto population = PopulationGenerator::reference(0.05);
  stats::Rng rng(41);
  int cancers = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    cancers += population.generate(rng).has_cancer ? 1 : 0;
  }
  EXPECT_NEAR(cancers / static_cast<double>(n), 0.05, 0.005);
}

// Pull the reference reader/CADT from the sim fixture.
sim::FeatureWorld fixture() { return sim::reference_feature_world(); }

TEST(Policies, StandardSuiteIsComplete) {
  const auto world = fixture();
  const auto policies = standard_policies(world.reader(), world.cadt());
  EXPECT_EQ(policies.size(), 7u);
  for (const auto& p : policies) EXPECT_FALSE(p->name().empty());
}

TEST(Programme, RunProducesConsistentCounts) {
  const auto world = fixture();
  SingleReaderPolicy policy(world.reader());
  stats::Rng rng(42);
  const auto result = run_programme(PopulationGenerator::reference(0.01),
                                    policy, 20000, CostModel{}, rng);
  EXPECT_EQ(result.counts.total(), 20000u);
  EXPECT_GT(result.metrics.specificity, 0.5);
  EXPECT_GT(result.cost_per_case, 0.0);
}

TEST(Programme, CadtImprovesSensitivityAtSomeSpecificityCost) {
  const auto world = fixture();
  // Enriched prevalence so sensitivity estimates are tight enough.
  auto population = PopulationGenerator::reference(0.3);
  SingleReaderPolicy alone(world.reader());
  ReaderWithCadtPolicy aided(world.reader(), world.cadt());
  stats::Rng rng(43);
  stats::Rng rng2 = rng.split(99);
  const auto r_alone =
      run_programme(population, alone, 60000, CostModel{}, rng);
  const auto r_aided =
      run_programme(population, aided, 60000, CostModel{}, rng2);
  EXPECT_GT(r_aided.metrics.sensitivity, r_alone.metrics.sensitivity);
  EXPECT_LE(r_aided.metrics.specificity, r_alone.metrics.specificity + 0.01);
}

TEST(Programme, DoubleReadingBeatsSingleOnSensitivity) {
  const auto world = fixture();
  auto population = PopulationGenerator::reference(0.3);
  SingleReaderPolicy single(world.reader());
  DoubleReadingPolicy dbl(world.reader(), world.reader());
  stats::Rng rng(44);
  stats::Rng rng2 = rng.split(98);
  const auto r_single =
      run_programme(population, single, 60000, CostModel{}, rng);
  const auto r_double =
      run_programme(population, dbl, 60000, CostModel{}, rng2);
  EXPECT_GT(r_double.metrics.sensitivity, r_single.metrics.sensitivity);
  // Recall-if-either costs specificity.
  EXPECT_LT(r_double.metrics.specificity, r_single.metrics.specificity);
  EXPECT_EQ(r_double.metrics.readings_per_case, 2.0);
}

TEST(Programme, ArbitrationRecoversSpecificity) {
  const auto world = fixture();
  auto population = PopulationGenerator::reference(0.1);
  DoubleReadingPolicy recall_either(world.reader(), world.reader());
  DoubleReadingPolicy arbitrated(world.reader(), world.reader(),
                                 world.reader(), "arbitrated");
  stats::Rng rng(45);
  stats::Rng rng2 = rng.split(97);
  const auto r_either =
      run_programme(population, recall_either, 60000, CostModel{}, rng);
  const auto r_arb =
      run_programme(population, arbitrated, 60000, CostModel{}, rng2);
  EXPECT_GT(r_arb.metrics.specificity, r_either.metrics.specificity);
  EXPECT_LE(r_arb.metrics.sensitivity, r_either.metrics.sensitivity + 0.01);
  EXPECT_GT(r_arb.metrics.readings_per_case, 2.0);
}

TEST(Programme, UnaidedPoliciesIgnoreTheReadersReliance) {
  // With no CADT there is nothing to rely on: the unaided policies read as
  // a zero-reliance copy of each reader, so a reader built relying on the
  // machine must give the very counts of one built not relying on it.
  const auto world = fixture();
  const auto population = PopulationGenerator::reference(0.1);
  sim::ReaderModel::Config config = world.reader().config();
  config.initial_reliance = 0.5;
  const sim::ReaderModel relying(config);
  config.initial_reliance = 0.0;
  const sim::ReaderModel not_relying(config);
  auto counts = [&](ReadingPolicy& policy) {
    stats::Rng rng(47);
    return run_programme(population, policy, 20000, CostModel{}, rng);
  };
  SingleReaderPolicy single_relying(relying);
  SingleReaderPolicy single_not_relying(not_relying);
  DoubleReadingPolicy double_relying(relying, relying, relying);
  DoubleReadingPolicy double_not_relying(not_relying, not_relying,
                                         not_relying);
  const ProgrammeResult pairs[][2] = {
      {counts(single_relying), counts(single_not_relying)},
      {counts(double_relying), counts(double_not_relying)}};
  for (const auto& pair : pairs) {
    EXPECT_EQ(pair[0].counts.true_positives, pair[1].counts.true_positives);
    EXPECT_EQ(pair[0].counts.false_negatives, pair[1].counts.false_negatives);
    EXPECT_EQ(pair[0].counts.false_positives, pair[1].counts.false_positives);
    EXPECT_EQ(pair[0].counts.true_negatives, pair[1].counts.true_negatives);
    EXPECT_EQ(pair[0].metrics.readings_per_case,
              pair[1].metrics.readings_per_case);
  }
}

TEST(Programme, ComparePoliciesIsBitIdenticalAcrossThreadCounts) {
  // compare_policies runs each policy as one pool task on its own split
  // stream: one thread and four must agree on every field of every result,
  // the arbitration policy's data-dependent readings per case included.
  const auto world = fixture();
  const auto population = PopulationGenerator::reference(0.05);
  CostModel costs;
  auto run_at = [&](unsigned threads, std::uint64_t case_count) {
    auto policies = standard_policies(world.reader(), world.cadt());
    stats::Rng rng(7);
    return compare_policies(population, policies, case_count, costs, rng,
                            exec::Config{threads});
  };
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  const auto serial = run_at(1, 5000);
  const auto pooled = run_at(4, 5000);
  ASSERT_EQ(serial.size(), 7u);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const ProgrammeResult& a = serial[i];
    const ProgrammeResult& b = pooled[i];
    EXPECT_EQ(a.policy_name, b.policy_name) << i;
    EXPECT_EQ(a.counts.true_positives, b.counts.true_positives) << i;
    EXPECT_EQ(a.counts.false_negatives, b.counts.false_negatives) << i;
    EXPECT_EQ(a.counts.false_positives, b.counts.false_positives) << i;
    EXPECT_EQ(a.counts.true_negatives, b.counts.true_negatives) << i;
    EXPECT_TRUE(same_bits(a.metrics.readings_per_case,
                          b.metrics.readings_per_case))
        << i;
    EXPECT_TRUE(same_bits(a.cost_per_case, b.cost_per_case)) << i;
  }
  // Policy 3 arbitrates, so its workload is measured, not fixed.
  EXPECT_EQ(serial[3].policy_name, "double reading + arbitration");
  EXPECT_GT(serial[3].metrics.readings_per_case, 2.0);
  // A pool task's failure reaches the caller.
  EXPECT_THROW(static_cast<void>(run_at(4, 0)), std::invalid_argument);
}

TEST(Programme, ProfiledRunsRecordTheirSpans) {
  // The spans `programme_comparison --profile` and its siblings print.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Histogram& programme =
      obs::Registry::global().histogram("screening.programme.run_ns");
  obs::Histogram& truth =
      obs::Registry::global().histogram("sim.ground_truth.model_ns");
  const std::uint64_t programme_before = programme.count();
  const std::uint64_t truth_before = truth.count();
  const auto world = fixture();
  SingleReaderPolicy policy(world.reader());
  stats::Rng rng(42);
  (void)run_programme(PopulationGenerator::reference(0.01), policy, 100,
                      CostModel{}, rng);
  (void)sim::ground_truth_model(world);
  obs::set_enabled(was_enabled);
  EXPECT_EQ(programme.count(), programme_before + 1);
  EXPECT_EQ(truth.count(), truth_before + 1);
}

TEST(Programme, RejectsZeroCases) {
  const auto world = fixture();
  SingleReaderPolicy policy(world.reader());
  stats::Rng rng(46);
  EXPECT_THROW(static_cast<void>(run_programme(
                   PopulationGenerator::reference(0.01), policy, 0,
                   CostModel{}, rng)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hmdiv::screening
