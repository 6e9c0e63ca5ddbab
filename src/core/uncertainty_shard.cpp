#include "core/uncertainty_shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/cluster.hpp"
#include "exec/cluster_protocol.hpp"
#include "obs/obs.hpp"

namespace hmdiv::core {

namespace {

using exec::wire::Reader;
using exec::wire::Writer;

// Blob layout: u64 n_classes, n × str name, n × 4 u64 counts, doubles
// profile probabilities, u64 total_draws, u64 base. Counts are integers,
// so the worker's rebuilt sampler has bit-identical Beta posterior preps;
// the profile rebuilds through from_normalised.

struct UqShardConfig {
  PosteriorModelSampler sampler;
  DemandProfile profile;
  std::uint64_t total_draws = 0;
  std::uint64_t base = 0;
};

std::vector<std::uint8_t> encode_blob(const PosteriorModelSampler& sampler,
                                      const DemandProfile& profile,
                                      std::uint64_t total_draws,
                                      std::uint64_t base) {
  Writer w;
  const std::size_t k = sampler.class_count();
  w.u64(k);
  for (const std::string& name : sampler.class_names()) w.str(name);
  for (const ClassCounts& c : sampler.counts()) {
    w.u64(c.cases);
    w.u64(c.machine_failures);
    w.u64(c.human_failures_given_machine_failed);
    w.u64(c.human_failures_given_machine_succeeded);
  }
  std::vector<double> probabilities(k);
  for (std::size_t x = 0; x < k; ++x) {
    probabilities[x] = profile.probability(x);
  }
  w.doubles(probabilities);
  w.u64(total_draws);
  w.u64(base);
  return w.take();
}

UqShardConfig decode_blob(std::span<const std::uint8_t> blob) {
  Reader r(blob);
  // Each class takes at least a name length and four counts.
  const std::size_t k = r.count(5 * sizeof(std::uint64_t));
  std::vector<std::string> names;
  names.reserve(k);
  for (std::size_t x = 0; x < k; ++x) names.push_back(r.str());
  std::vector<ClassCounts> counts(k);
  for (ClassCounts& c : counts) {
    c.cases = r.u64();
    c.machine_failures = r.u64();
    c.human_failures_given_machine_failed = r.u64();
    c.human_failures_given_machine_succeeded = r.u64();
  }
  std::vector<double> probabilities = r.doubles();
  const std::uint64_t total_draws = r.u64();
  const std::uint64_t base = r.u64();
  if (!r.exhausted()) {
    throw exec::wire::ProtocolError("core.uq.sample blob: trailing bytes");
  }
  if (total_draws > kMaxUqShardDraws) {
    throw exec::wire::ProtocolError(
        "core.uq.sample blob: total_draws " + std::to_string(total_draws) +
        " exceeds the cap of " + std::to_string(kMaxUqShardDraws));
  }
  return UqShardConfig{
      PosteriorModelSampler(names, std::move(counts)),
      DemandProfile::from_normalised(std::move(names),
                                     std::move(probabilities)),
      total_draws, base};
}

/// Worker side: rebuild the sampler, fill this shard's slice of the chunk
/// index space, ship the draws back as bit patterns.
std::vector<std::uint8_t> handle_uq_shard(const exec::wire::ShardTask& task) {
  const UqShardConfig config = decode_blob(task.blob);
  const std::size_t total = static_cast<std::size_t>(config.total_draws);
  const exec::wire::ShardRange range =
      exec::wire::shard_range(PosteriorModelSampler::draw_chunk_count(total),
                              task.shard_index, task.shard_count);
  const std::size_t begin = static_cast<std::size_t>(range.begin) *
                            PosteriorModelSampler::kDrawChunk;
  const std::size_t end =
      std::min(static_cast<std::size_t>(range.end) *
                   PosteriorModelSampler::kDrawChunk,
               total);
  std::vector<double> draws(end - begin);
  config.sampler.sample_failure_probability_chunks(
      config.profile, config.base, total,
      static_cast<std::size_t>(range.begin),
      static_cast<std::size_t>(range.end), draws,
      exec::Config{task.threads});
  Writer w;
  w.doubles(draws);
  return w.take();
}

const exec::ShardWorkloadRegistration kRegistration{
    kUncertaintyShardWorkload, &handle_uq_shard};

/// Ascending-shard merge: concatenate each task's chunk-aligned draw slice
/// into `out`.
void merge_uq_payloads(const std::vector<std::vector<std::uint8_t>>& payloads,
                       std::span<double> out) {
  std::size_t offset = 0;
  for (const auto& payload : payloads) {
    Reader r(payload);
    const std::vector<double> draws = r.doubles();
    if (!r.exhausted() || draws.size() > out.size() - offset) {
      throw exec::wire::ProtocolError("core.uq.sample result: bad payload");
    }
    std::copy(draws.begin(), draws.end(), out.begin() + offset);
    offset += draws.size();
  }
  if (offset != out.size()) {
    throw exec::wire::ProtocolError(
        "core.uq.sample: merged draw count mismatch");
  }
}

}  // namespace

void sample_failure_probabilities_clustered(
    const PosteriorModelSampler& sampler, const DemandProfile& profile,
    stats::Rng& rng, std::span<double> out, exec::ClusterRunner& cluster) {
  if (out.empty()) {
    throw std::invalid_argument(
        "sample_failure_probabilities_clustered: empty output");
  }
  HMDIV_OBS_SCOPED_TIMER("core.uq.cluster_sample_ns");
  // One step off the caller's rng — exactly what the in-process engine
  // consumes — so caller-visible rng state stays identical.
  const std::uint64_t base = rng.next_u64();
  const std::vector<std::uint8_t> blob =
      encode_blob(sampler, profile, out.size(), base);
  merge_uq_payloads(
      cluster.run(kUncertaintyShardWorkload, blob,
                  PosteriorModelSampler::draw_chunk_count(out.size())),
      out);
}

UncertainPrediction predict_clustered(const PosteriorModelSampler& sampler,
                                      const DemandProfile& profile,
                                      stats::Rng& rng, std::size_t draws,
                                      double credibility,
                                      exec::ClusterRunner& cluster) {
  if (draws == 0) {
    throw std::invalid_argument("predict_clustered: draws == 0");
  }
  std::vector<double> values(draws);
  sample_failure_probabilities_clustered(sampler, profile, rng, values,
                                         cluster);
  return PosteriorModelSampler::summarise(values, credibility);
}

void ensure_uncertainty_shard_registered() {}

}  // namespace hmdiv::core
