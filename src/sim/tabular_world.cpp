#include "sim/tabular_world.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace hmdiv::sim {

namespace {

/// The joint outcome distribution p(x)·p(machine|x)·p(human|machine,x),
/// flattened as entry 4·x + 2·machine_failed + human_failed. Each class's
/// four entries sum to p(x), so the whole vector sums to 1 and feeds an
/// alias table directly.
std::vector<double> joint_probabilities(const core::SequentialModel& model,
                                        const core::DemandProfile& profile) {
  if (!model.compatible_with(profile)) {
    throw std::invalid_argument(
        "TabularWorld: profile classes do not match model classes");
  }
  const std::size_t k = model.class_count();
  std::vector<double> joint(4 * k);
  for (std::size_t x = 0; x < k; ++x) {
    const core::ClassConditional& c = model.parameters(x);
    const double p_ms = profile.probability(x) * (1.0 - c.p_machine_fails);
    const double p_mf = profile.probability(x) * c.p_machine_fails;
    joint[4 * x + 0] = p_ms * (1.0 - c.p_human_fails_given_machine_succeeds);
    joint[4 * x + 1] = p_ms * c.p_human_fails_given_machine_succeeds;
    joint[4 * x + 2] = p_mf * (1.0 - c.p_human_fails_given_machine_fails);
    joint[4 * x + 3] = p_mf * c.p_human_fails_given_machine_fails;
  }
  return joint;
}

}  // namespace

TabularWorld::TabularWorld(core::SequentialModel model,
                           core::DemandProfile profile)
    : model_(std::move(model)),
      profile_(std::move(profile)),
      joint_(joint_probabilities(model_, profile_)),
      joint_alias_(joint_) {
  joint_records_.resize(joint_alias_.size());
  for (std::size_t j = 0; j < joint_records_.size(); ++j) {
    joint_records_[j].class_index = j >> 2;
    joint_records_[j].machine_failed = (j & 2) != 0;
    joint_records_[j].human_failed = (j & 1) != 0;
  }
}

CaseRecord TabularWorld::simulate_case(stats::Rng& rng) {
  CaseRecord r;
  r.class_index = profile_.sample(rng);
  const core::ClassConditional& c = model_.parameters(r.class_index);
  r.machine_failed = rng.bernoulli(c.p_machine_fails);
  r.human_failed = rng.bernoulli(
      r.machine_failed ? c.p_human_fails_given_machine_fails
                       : c.p_human_fails_given_machine_succeeds);
  return r;
}

void TabularWorld::simulate_batch(std::span<CaseRecord> out,
                                  stats::Rng& rng) const {
  // One uniform per case, bulk-filled per fixed-size tile so the scratch
  // buffer (8 KiB) stays L1-resident. The tile size is a constant — never
  // derived from the batch or thread count — so the draw layout (and
  // hence the canonical stream) is a function of the case index alone.
  // The filled tile breaks the RNG's serial dependency chain out of the
  // decode loop: alias lookups and record stores pipeline across cases.
  constexpr std::size_t kTile = 1024;
  // thread_local so a trial run reuses one scratch buffer per worker
  // thread instead of allocating per batch.
  thread_local std::vector<double> u(kTile);
  while (!out.empty()) {
    const std::size_t n = std::min(out.size(), kTile);
    rng.fill_uniform(std::span<double>(u.data(), n));
    const CaseRecord* records = joint_records_.data();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = records[joint_alias_.sample_from_uniform(u[i])];
    }
    out = out.subspan(n);
  }
}

std::vector<core::ClassCounts> TabularWorld::simulate_counts(
    std::uint64_t case_count, stats::Rng& rng) const {
  HMDIV_OBS_SCOPED_TIMER("sim.trial.run_ns");
  HMDIV_OBS_COUNT("sim.trial.runs", 1);
  HMDIV_OBS_COUNT("sim.trial.cases", case_count);
  std::vector<std::uint64_t> cells(joint_.size());
  rng.multinomial(case_count, joint_, cells);
  std::vector<core::ClassCounts> counts(model_.class_count());
  for (std::size_t x = 0; x < counts.size(); ++x) {
    core::ClassCounts& c = counts[x];
    const std::uint64_t* cell = cells.data() + 4 * x;
    c.cases = cell[0] + cell[1] + cell[2] + cell[3];
    c.machine_failures = cell[2] + cell[3];
    c.human_failures_given_machine_failed = cell[3];
    c.human_failures_given_machine_succeeded = cell[1];
  }
  return counts;
}

std::vector<std::uint64_t> joint_cells(
    std::span<const core::ClassCounts> counts) {
  std::vector<std::uint64_t> cells(4 * counts.size());
  for (std::size_t x = 0; x < counts.size(); ++x) {
    const core::ClassCounts& c = counts[x];
    if (!c.consistent()) {
      throw std::invalid_argument("joint_cells: inconsistent class counts");
    }
    const std::uint64_t machine_successes = c.cases - c.machine_failures;
    cells[4 * x + 0] =
        machine_successes - c.human_failures_given_machine_succeeded;
    cells[4 * x + 1] = c.human_failures_given_machine_succeeded;
    cells[4 * x + 2] =
        c.machine_failures - c.human_failures_given_machine_failed;
    cells[4 * x + 3] = c.human_failures_given_machine_failed;
  }
  return cells;
}

double joint_failure_rate(std::span<const std::uint64_t> cells) {
  std::uint64_t failures = 0;
  std::uint64_t cases = 0;
  for (std::size_t j = 0; j < cells.size(); ++j) {
    cases += cells[j];
    if (j % 2 == 1) failures += cells[j];
  }
  return static_cast<double>(failures) / static_cast<double>(cases);
}

std::size_t TabularWorld::class_count() const { return model_.class_count(); }

const std::vector<std::string>& TabularWorld::class_names() const {
  return model_.class_names();
}

}  // namespace hmdiv::sim
