// Tests for the obs subsystem: counters, histograms, snapshot quantiles,
// scoped timers, the global registry, the instrumentation macros' runtime
// gate and per-call-site caching, and snapshot merges — including
// thread-safety of concurrent mutation under exec::parallel_for.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace hmdiv {
namespace {

// Each gtest case runs in its own process under ctest, but keep the
// runtime gate off after every test anyway so in-binary runs stay clean.
class ObsGateGuard {
 public:
  ~ObsGateGuard() { obs::set_enabled(false); }
};

obs::HistogramSnapshot snapshot_of(const obs::Histogram& h) {
  obs::HistogramSnapshot snap;
  snap.name = h.name();
  snap.count = h.count();
  snap.sum = h.sum();
  snap.min = h.min();
  snap.max = h.max();
  snap.buckets.resize(obs::Histogram::kBuckets);
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    snap.buckets[b] = h.bucket(b);
  }
  return snap;
}

TEST(ObsCounter, AddAccumulatesAndResetZeroes) {
  obs::Counter c("c");
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);
  EXPECT_EQ(c.name(), "c");
  c.reset();
  EXPECT_EQ(c.value(), 0U);
}

TEST(ObsCounter, ConcurrentAddsAreExact) {
  obs::Counter c("c");
  constexpr std::size_t kN = 100'000;
  exec::parallel_for(kN, 256, [&](std::size_t) { c.add(); },
                     exec::Config{8});
  EXPECT_EQ(c.value(), kN);
}

TEST(ObsHistogram, TracksCountSumMinMax) {
  obs::Histogram h("h");
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.min(), 0U);  // empty histogram reads as all-zero
  EXPECT_EQ(h.max(), 0U);
  h.record(7);
  h.record(100);
  h.record(3);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_EQ(h.sum(), 110U);
  EXPECT_EQ(h.min(), 3U);
  EXPECT_EQ(h.max(), 100U);
}

TEST(ObsHistogram, QuantileIsWithinAFactorOfTwo) {
  obs::Histogram h("h");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const obs::HistogramSnapshot snap = snapshot_of(h);
  // The true median is 500; the bucketed answer is its bucket's upper
  // bound, so it lies in [500, 1000).
  const std::uint64_t p50 = obs::snapshot_quantile(snap, 0.5);
  EXPECT_GE(p50, 500U);
  EXPECT_LT(p50, 1000U);
  const std::uint64_t p99 = obs::snapshot_quantile(snap, 0.99);
  EXPECT_GE(p99, 990U);
  EXPECT_LE(p99, 2U * 990U);
  EXPECT_GE(obs::snapshot_quantile(snap, 1.0),
            obs::snapshot_quantile(snap, 0.0));
  EXPECT_EQ(obs::snapshot_quantile(snapshot_of(obs::Histogram("empty")), 0.5),
            0U);
  // A tail value keeps p99.9 above the median.
  h.record(1'000'000);
  const obs::HistogramSnapshot tail = snapshot_of(h);
  EXPECT_GT(obs::snapshot_quantile(tail, 0.999),
            obs::snapshot_quantile(tail, 0.5));
}

TEST(ObsHistogram, QuantilesStayWithinTheObservedRange) {
  // One 2906 us sample sits in the [2^21, 2^22) ns bucket, whose upper
  // bound (4194 us) used to be reported as every quantile — above max.
  obs::Histogram h("h");
  h.record(2'906'000);
  const obs::HistogramSnapshot one = snapshot_of(h);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(obs::snapshot_quantile(one, q), 2'906'000U) << "q=" << q;
  }
  // With a spread, interior quantiles keep their bucket bounds.
  h.record(1'500);
  const obs::HistogramSnapshot spread = snapshot_of(h);
  EXPECT_EQ(obs::snapshot_quantile(spread, 0.0), 2'047U);
  EXPECT_EQ(obs::snapshot_quantile(spread, 1.0), 2'906'000U);
}

TEST(ObsHistogram, RecordsZeroAndResets) {
  obs::Histogram h("h");
  h.record(0);
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 0U);
  h.record(9);
  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.sum(), 0U);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 0U);
  EXPECT_EQ(obs::snapshot_quantile(snapshot_of(h), 0.5), 0U);
}

TEST(ObsHistogram, ConcurrentRecordsAreExactOnCountAndSum) {
  obs::Histogram h("h");
  constexpr std::size_t kN = 50'000;
  exec::parallel_for(kN, 128,
                     [&](std::size_t i) { h.record(i % 1024); },
                     exec::Config{8});
  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.max(), 1023U);
}

TEST(ObsHistogram, SnapshotQuantileEdgeCases) {
  const obs::HistogramSnapshot empty;
  EXPECT_EQ(obs::snapshot_quantile(empty, 0.5), 0U);
  // A snapshot without bucket counts (e.g. hand-built) falls back to max.
  obs::HistogramSnapshot bare;
  bare.count = 5;
  bare.max = 1234;
  EXPECT_EQ(obs::snapshot_quantile(bare, 0.99), 1234U);
}

TEST(ObsScopedTimer, RecordsIntoItsHistogramAndNullIsInert) {
  obs::Histogram h("h");
  {
    obs::ScopedTimer t(&h);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(h.count(), 1U);
  { obs::ScopedTimer inert(nullptr); }  // nothing to record into
  EXPECT_EQ(h.count(), 1U);
}

TEST(ObsRegistry, LookupIsStableAndLazy) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  obs::Counter& a = registry.counter("obs.test.stable");
  obs::Counter& b = registry.counter("obs.test.stable");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5U);
  obs::Histogram& h = registry.histogram("obs.test.stable_hist");
  EXPECT_EQ(&h, &registry.histogram("obs.test.stable_hist"));
}

TEST(ObsRegistry, SnapshotReportsSortedMetrics) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  registry.reset();
  registry.counter("obs.test.zzz").add(1);
  registry.counter("obs.test.aaa").add(2);
  registry.histogram("obs.test.hist").record(16);
  const obs::Snapshot snap = obs::registry_snapshot();
  EXPECT_FALSE(snap.empty());
  // std::map iteration order: sorted by name.
  std::string previous;
  bool saw_aaa = false, saw_zzz = false;
  for (const auto& c : snap.counters) {
    EXPECT_LE(previous, c.name);
    previous = c.name;
    if (c.name == "obs.test.aaa") {
      saw_aaa = true;
      EXPECT_EQ(c.value, 2U);
    }
    if (c.name == "obs.test.zzz") {
      saw_zzz = true;
      EXPECT_EQ(c.value, 1U);
    }
  }
  EXPECT_TRUE(saw_aaa);
  EXPECT_TRUE(saw_zzz);
  bool saw_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "obs.test.hist") {
      saw_hist = true;
      EXPECT_EQ(h.count, 1U);
      EXPECT_EQ(h.sum, 16U);
      EXPECT_GE(obs::snapshot_quantile(h, 0.5), 16U);
    }
  }
  EXPECT_TRUE(saw_hist);
}

TEST(ObsRegistry, ResetZeroesButKeepsRegistrations) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  obs::Counter& c = registry.counter("obs.test.reset_me");
  c.add(9);
  registry.reset();
  EXPECT_EQ(c.value(), 0U);  // cached reference survives the reset
  bool found = false;
  for (const auto& snap : obs::registry_snapshot().counters) {
    if (snap.name == "obs.test.reset_me") {
      found = true;
      EXPECT_EQ(snap.value, 0U);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsMacros, DisabledGateMakesCountANoOp) {
  ObsGateGuard guard;
  obs::set_enabled(false);
  obs::Registry::global().reset();
  HMDIV_OBS_COUNT("obs.test.gated", 3);
  for (const auto& c : obs::registry_snapshot().counters) {
    if (c.name == "obs.test.gated") {
      EXPECT_EQ(c.value, 0U);
    }
  }
}

TEST(ObsMacros, DisabledGateMakesTimerInert) {
  ObsGateGuard guard;
  obs::set_enabled(false);
  { HMDIV_OBS_SCOPED_TIMER("obs.test.disabled_timer_ns"); }
  for (const auto& h : obs::registry_snapshot().histograms) {
    EXPECT_NE(h.name, "obs.test.disabled_timer_ns");
  }
}

TEST(ObsMacros, TimerCallSiteKeepsItsHistogram) {
  // Every run of one call site records into the registry's histogram of
  // that name, resolved once: a registry reset zeroes it but does not
  // replace it, and a disabled gate skips it.
  ObsGateGuard guard;
  const auto timed_scope = [] {
    HMDIV_OBS_SCOPED_TIMER("obs.test.call_site_timer_ns");
  };
  auto& registry = obs::Registry::global();
  obs::set_enabled(true);
  registry.reset();
  for (int i = 0; i < 3; ++i) timed_scope();
  obs::Histogram& h = registry.histogram("obs.test.call_site_timer_ns");
  EXPECT_EQ(h.count(), 3U);
  registry.reset();
  timed_scope();
  EXPECT_EQ(h.count(), 1U);
  obs::set_enabled(false);
  timed_scope();
  EXPECT_EQ(h.count(), 1U);
}

TEST(ObsMacros, EnabledGateCountsAndTimes) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  HMDIV_OBS_COUNT("obs.test.macro_counter", 2);
  HMDIV_OBS_COUNT("obs.test.macro_counter", 3);
  { HMDIV_OBS_SCOPED_TIMER("obs.test.macro_timer_ns"); }
  EXPECT_EQ(obs::Registry::global().counter("obs.test.macro_counter").value(),
            5U);
  EXPECT_EQ(
      obs::Registry::global().histogram("obs.test.macro_timer_ns").count(),
      1U);
}

TEST(ObsMacros, CountUnderParallelForIsExact) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Registry::global().reset();
  constexpr std::size_t kN = 20'000;
  exec::parallel_for(
      kN, 64, [&](std::size_t) { HMDIV_OBS_COUNT("obs.test.parallel", 1); },
      exec::Config{8});
  EXPECT_EQ(obs::Registry::global().counter("obs.test.parallel").value(), kN);
}

// --- Snapshot merge (the cluster's obs transport) -------------------------

const obs::HistogramSnapshot* find_histogram(const obs::Snapshot& snap,
                                             const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const obs::CounterSnapshot* find_counter(const obs::Snapshot& snap,
                                         const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(ObsMerge, HistogramMergeSumsBucketsNotQuantiles) {
  obs::Histogram left("h");
  obs::Histogram right("h");
  // Disjoint magnitude ranges: merging by re-binning derived quantiles
  // would smear one side; summing buckets keeps both exactly.
  left.record(4);
  left.record(5);
  right.record(1 << 20);

  left.merge(snapshot_of(right));
  EXPECT_EQ(left.count(), 3U);
  EXPECT_EQ(left.sum(), 9U + (1U << 20));
  EXPECT_EQ(left.min(), 4U);
  EXPECT_EQ(left.max(), std::uint64_t{1} << 20);
  // Bucket 3 ([4,8)) holds both small values, bucket 21 the large one.
  EXPECT_EQ(left.bucket(3), 2U);
  EXPECT_EQ(left.bucket(21), 1U);
  // The merged p99 bound reflects the large recording, not a re-binned
  // average of the two sides.
  EXPECT_GE(obs::snapshot_quantile(snapshot_of(left), 0.99),
            std::uint64_t{1} << 20);
}

TEST(ObsMerge, HistogramMergeOfEmptySnapshotIsIdentity) {
  obs::Histogram h("h");
  h.record(7);
  obs::Histogram empty("h");
  h.merge(snapshot_of(empty));
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.min(), 7U);
  EXPECT_EQ(h.max(), 7U);
}

TEST(ObsMerge, RegistryMergeAddsCountersAndCreatesMissingMetrics) {
  ObsGateGuard guard;
  auto& registry = obs::Registry::global();
  registry.reset();
  registry.counter("obs.test.merge_shared").add(5);

  obs::Snapshot worker;
  worker.counters.push_back({"obs.test.merge_shared", 7});
  worker.counters.push_back({"obs.test.merge_new", 3});
  obs::Histogram worker_hist("obs.test.merge_hist");
  worker_hist.record(32);
  worker.histograms.push_back(snapshot_of(worker_hist));

  registry.merge(worker);
  const obs::Snapshot merged = obs::registry_snapshot();
  const auto* shared = find_counter(merged, "obs.test.merge_shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->value, 12U);
  const auto* created = find_counter(merged, "obs.test.merge_new");
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(created->value, 3U);
  const auto* hist = find_histogram(merged, "obs.test.merge_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1U);
  EXPECT_EQ(hist->sum, 32U);
}

TEST(ObsMerge, MergedWorkerCountsEqualSingleProcessRun) {
  // The shard invariant at the registry level: N workers each tallying a
  // slice under parallel_for, merged into the parent, must equal one
  // process tallying everything. Simulated here with snapshots taken
  // between resets of the global registry.
  ObsGateGuard guard;
  obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  registry.reset();
  constexpr std::size_t kN = 10'000;

  exec::parallel_for(
      kN, 64, [&](std::size_t) { HMDIV_OBS_COUNT("obs.test.sharded", 1); },
      exec::Config{4});
  const obs::Snapshot worker_half = obs::registry_snapshot();
  registry.reset();
  exec::parallel_for(
      kN, 64, [&](std::size_t) { HMDIV_OBS_COUNT("obs.test.sharded", 1); },
      exec::Config{4});
  registry.merge(worker_half);

  EXPECT_EQ(registry.counter("obs.test.sharded").value(), 2 * kN);
}

}  // namespace
}  // namespace hmdiv
