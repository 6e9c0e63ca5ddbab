#include "core/tradeoff_shard.hpp"

#include <string>
#include <string_view>
#include <utility>

#include "exec/cluster.hpp"
#include "exec/cluster_protocol.hpp"
#include "obs/obs.hpp"

namespace hmdiv::core {

namespace {

using exec::wire::Reader;
using exec::wire::Writer;

// --- DemandProfile wire helpers -------------------------------------------

void encode_profile(Writer& w, const DemandProfile& profile) {
  w.u64(profile.class_count());
  for (const std::string& name : profile.class_names()) w.str(name);
  std::vector<double> probabilities(profile.class_count());
  for (std::size_t x = 0; x < probabilities.size(); ++x) {
    probabilities[x] = profile.probability(x);
  }
  w.doubles(probabilities);
}

DemandProfile decode_profile(Reader& r) {
  const std::size_t k = r.count(sizeof(std::uint64_t));
  std::vector<std::string> names;
  names.reserve(k);
  for (std::size_t x = 0; x < k; ++x) names.push_back(r.str());
  return DemandProfile::from_normalised(std::move(names), r.doubles());
}

// --- Analyzer round trip --------------------------------------------------
// Every double crosses as its bit pattern and the profiles rebuild through
// from_normalised, so the worker's analyzer — SoA tables included — is
// bit-identical to the parent's.

void encode_analyzer(Writer& w, const TradeoffAnalyzer& analyzer) {
  w.doubles(analyzer.machine().cancer_class_means);
  w.doubles(analyzer.machine().normal_class_means);
  encode_profile(w, analyzer.cancer_profile());
  w.u64(analyzer.fn_response().size());
  for (const HumanFnResponse& r : analyzer.fn_response()) {
    w.f64(r.p_fail_given_machine_prompted);
    w.f64(r.p_fail_given_machine_silent);
  }
  encode_profile(w, analyzer.normal_profile());
  w.u64(analyzer.fp_response().size());
  for (const HumanFpResponse& r : analyzer.fp_response()) {
    w.f64(r.p_recall_given_machine_prompted);
    w.f64(r.p_recall_given_machine_silent);
  }
  w.f64(analyzer.prevalence());
}

TradeoffAnalyzer decode_analyzer(Reader& r) {
  BinormalMachine machine;
  machine.cancer_class_means = r.doubles();
  machine.normal_class_means = r.doubles();
  DemandProfile cancer_profile = decode_profile(r);
  std::vector<HumanFnResponse> fn_response(r.count(2 * sizeof(double)));
  for (HumanFnResponse& response : fn_response) {
    response.p_fail_given_machine_prompted = r.f64();
    response.p_fail_given_machine_silent = r.f64();
  }
  DemandProfile normal_profile = decode_profile(r);
  std::vector<HumanFpResponse> fp_response(r.count(2 * sizeof(double)));
  for (HumanFpResponse& response : fp_response) {
    response.p_recall_given_machine_prompted = r.f64();
    response.p_recall_given_machine_silent = r.f64();
  }
  const double prevalence = r.f64();
  return TradeoffAnalyzer(std::move(machine), std::move(cancer_profile),
                          std::move(fn_response), std::move(normal_profile),
                          std::move(fp_response), prevalence);
}

// --- Operating-point wire helpers -----------------------------------------

void encode_point(Writer& w, const SystemOperatingPoint& p) {
  w.f64(p.threshold);
  w.f64(p.machine_fn);
  w.f64(p.machine_fp);
  w.f64(p.system_fn);
  w.f64(p.system_fp);
  w.f64(p.sensitivity);
  w.f64(p.specificity);
  w.f64(p.recall_rate);
  w.f64(p.ppv);
}

SystemOperatingPoint decode_point(Reader& r) {
  SystemOperatingPoint p;
  p.threshold = r.f64();
  p.machine_fn = r.f64();
  p.machine_fp = r.f64();
  p.system_fn = r.f64();
  p.system_fp = r.f64();
  p.sensitivity = r.f64();
  p.specificity = r.f64();
  p.recall_rate = r.f64();
  p.ppv = r.f64();
  return p;
}

/// Rejects a grid longer than kMaxSweepShardPoints before the handler
/// sizes or walks anything from it.
void check_grid(std::string_view workload, std::uint64_t points) {
  if (points > kMaxSweepShardPoints) {
    throw exec::wire::ProtocolError(
        std::string(workload) + " blob: grid of " + std::to_string(points) +
        " points exceeds the cap of " + std::to_string(kMaxSweepShardPoints));
  }
}

// --- "core.sweep" ---------------------------------------------------------
// Blob: analyzer, doubles thresholds. Result: u64 n, n × operating point.

std::vector<std::uint8_t> handle_sweep_shard(
    const exec::wire::ShardTask& task) {
  Reader r(task.blob);
  const TradeoffAnalyzer analyzer = decode_analyzer(r);
  const std::vector<double> thresholds = r.doubles();
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("core.sweep blob: trailing bytes");
  }
  check_grid("core.sweep", thresholds.size());
  const exec::wire::ShardRange range = exec::wire::shard_range(
      thresholds.size(), task.shard_index, task.shard_count);
  std::vector<SystemOperatingPoint> points(
      static_cast<std::size_t>(range.size()));
  analyzer.sweep_into(
      std::span<const double>(thresholds)
          .subspan(static_cast<std::size_t>(range.begin),
                   static_cast<std::size_t>(range.size())),
      points, exec::Config{task.threads});
  Writer w;
  w.u64(points.size());
  for (const SystemOperatingPoint& p : points) encode_point(w, p);
  return w.take();
}

// --- "core.minimise" ------------------------------------------------------
// Blob: analyzer, f64 cost_fn, f64 cost_fp, f64 lo, f64 hi, u64 steps.
// Result: u8 valid, f64 cost, operating point.

std::vector<std::uint8_t> handle_minimise_shard(
    const exec::wire::ShardTask& task) {
  Reader r(task.blob);
  const TradeoffAnalyzer analyzer = decode_analyzer(r);
  const double cost_fn = r.f64();
  const double cost_fp = r.f64();
  const double lo = r.f64();
  const double hi = r.f64();
  const std::uint64_t steps = r.u64();
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("core.minimise blob: trailing bytes");
  }
  check_grid("core.minimise", steps);
  const exec::wire::ShardRange range =
      exec::wire::shard_range(steps, task.shard_index, task.shard_count);
  const CostedOperatingPoint best = analyzer.minimise_cost_range(
      cost_fn, cost_fp, lo, hi, static_cast<std::size_t>(steps),
      static_cast<std::size_t>(range.begin),
      static_cast<std::size_t>(range.end), exec::Config{task.threads});
  Writer w;
  w.u8(best.valid ? 1 : 0);
  w.f64(best.cost);
  encode_point(w, best.point);
  return w.take();
}

const exec::ShardWorkloadRegistration kSweepRegistration{
    kSweepShardWorkload, &handle_sweep_shard};
const exec::ShardWorkloadRegistration kMinimiseRegistration{
    kMinimiseShardWorkload, &handle_minimise_shard};

// --- Blob builders and merges ---------------------------------------------
// The coordinator returns payloads in ascending shard order, so the merges
// below make the result independent of how the shards ran.

std::vector<std::uint8_t> encode_sweep_blob(
    const TradeoffAnalyzer& analyzer, const std::vector<double>& thresholds) {
  Writer blob;
  encode_analyzer(blob, analyzer);
  blob.doubles(thresholds);
  return blob.take();
}

std::vector<SystemOperatingPoint> merge_sweep_payloads(
    std::size_t expected, const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<SystemOperatingPoint> points;
  points.reserve(expected);
  for (const auto& payload : payloads) {
    Reader r(payload);
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) points.push_back(decode_point(r));
    if (!r.exhausted()) {
      throw exec::wire::ProtocolError("core.sweep result: trailing bytes");
    }
  }
  if (points.size() != expected) {
    throw exec::wire::ProtocolError(
        "core.sweep: merged point count mismatch");
  }
  return points;
}

std::vector<std::uint8_t> encode_minimise_blob(const TradeoffAnalyzer& analyzer,
                                               double cost_fn, double cost_fp,
                                               double lo, double hi,
                                               std::size_t steps) {
  Writer blob;
  encode_analyzer(blob, analyzer);
  blob.f64(cost_fn);
  blob.f64(cost_fp);
  blob.f64(lo);
  blob.f64(hi);
  blob.u64(steps);
  return blob.take();
}

SystemOperatingPoint merge_minimise_payloads(
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  // Ascending shard order = ascending grid order, so the strict-< fold
  // resolves exact cost ties to the earliest grid point — the same rule
  // minimise_cost applies across its chunks.
  CostedOperatingPoint best;
  for (const auto& payload : payloads) {
    Reader r(payload);
    CostedOperatingPoint next;
    next.valid = r.u8() != 0;
    next.cost = r.f64();
    next.point = decode_point(r);
    if (!r.exhausted()) {
      throw exec::wire::ProtocolError(
          "core.minimise result: trailing bytes");
    }
    if (!best.valid || (next.valid && next.cost < best.cost)) {
      best = next;
    }
  }
  return best.point;
}

}  // namespace

std::vector<SystemOperatingPoint> sweep_clustered(
    const TradeoffAnalyzer& analyzer, const std::vector<double>& thresholds,
    exec::ClusterRunner& cluster) {
  if (thresholds.empty()) return {};
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.cluster_sweep_ns");
  const std::vector<std::uint8_t> blob = encode_sweep_blob(analyzer, thresholds);
  return merge_sweep_payloads(
      thresholds.size(),
      cluster.run(kSweepShardWorkload, blob, thresholds.size()));
}

SystemOperatingPoint minimise_cost_clustered(const TradeoffAnalyzer& analyzer,
                                             double cost_fn, double cost_fp,
                                             double lo, double hi,
                                             std::size_t steps,
                                             exec::ClusterRunner& cluster) {
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.cluster_minimise_ns");
  const std::vector<std::uint8_t> blob =
      encode_minimise_blob(analyzer, cost_fn, cost_fp, lo, hi, steps);
  return merge_minimise_payloads(
      cluster.run(kMinimiseShardWorkload, blob, steps));
}

void ensure_tradeoff_shard_registered() {}

}  // namespace hmdiv::core
