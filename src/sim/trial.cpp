#include "sim/trial.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace hmdiv::sim {

double TrialData::observed_failure_rate() const {
  if (records.empty()) return 0.0;
  std::size_t failures = 0;
  for (const auto& r : records) failures += r.human_failed ? 1 : 0;
  return static_cast<double>(failures) / static_cast<double>(records.size());
}

double TrialData::observed_machine_failure_rate() const {
  if (records.empty()) return 0.0;
  std::size_t failures = 0;
  for (const auto& r : records) failures += r.machine_failed ? 1 : 0;
  return static_cast<double>(failures) / static_cast<double>(records.size());
}

std::vector<std::uint64_t> TrialData::class_histogram() const {
  std::vector<std::uint64_t> counts(class_names.size(), 0);
  for (const auto& r : records) {
    if (r.class_index >= counts.size()) {
      throw std::logic_error("TrialData: record class out of range");
    }
    ++counts[r.class_index];
  }
  return counts;
}

TrialRunner::TrialRunner(World& world, std::uint64_t case_count)
    : world_(world), case_count_(case_count) {
  if (case_count_ == 0) {
    throw std::invalid_argument("TrialRunner: case_count == 0");
  }
}

TrialData TrialRunner::run(stats::Rng& rng) {
  TrialData data;
  data.class_names = world_.class_names();
  data.records.reserve(case_count_);
  for (std::uint64_t i = 0; i < case_count_; ++i) {
    data.records.push_back(world_.simulate_case(rng));
  }
  return data;
}

TrialData TrialRunner::run(std::uint64_t seed, const exec::Config& config) {
  HMDIV_OBS_SCOPED_TIMER("sim.trial.run_ns");
  HMDIV_OBS_COUNT("sim.trial.runs", 1);
  TrialData data;
  data.class_names = world_.class_names();
  data.records = run_batches(seed, 0, batch_count(), config);
  return data;
}

std::uint64_t TrialRunner::batch_count() const {
  return (case_count_ + kBatchSize - 1) / kBatchSize;
}

std::vector<CaseRecord> TrialRunner::run_batches(std::uint64_t seed,
                                                 std::uint64_t first_batch,
                                                 std::uint64_t last_batch,
                                                 const exec::Config& config) {
  const std::uint64_t batches = batch_count();
  if (first_batch > last_batch || last_batch > batches) {
    throw std::invalid_argument("TrialRunner: batch range out of bounds");
  }
  const std::uint64_t case_begin = first_batch * kBatchSize;
  const std::uint64_t case_end =
      std::min(last_batch * kBatchSize, case_count_);
  std::vector<CaseRecord> records(
      static_cast<std::size_t>(case_end - case_begin));
  if (records.empty()) return records;
  HMDIV_OBS_COUNT("sim.trial.cases", records.size());
  // Chunk c of this sub-range is global batch first_batch + c (case_begin
  // is a multiple of kBatchSize, so chunk boundaries coincide with the
  // full run's batch boundaries) — same substream, same records.
  exec::parallel_for_chunks(
      records.size(), kBatchSize,
      [&](std::size_t begin, std::size_t end, std::size_t batch) {
        HMDIV_OBS_SCOPED_TIMER("sim.trial.batch_ns");
        stats::Rng batch_rng(seed, first_batch + batch);
        world_.simulate_batch(
            std::span<CaseRecord>(records).subspan(begin, end - begin),
            batch_rng);
      },
      config);
  return records;
}

}  // namespace hmdiv::sim
