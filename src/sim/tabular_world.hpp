// A world that *is* a sequential model: demands are drawn from a profile,
// the machine fails with PMf(x), and the human fails with the appropriate
// conditional probability. Its ground truth is the model itself, exactly —
// so it validates Eq. (8) by Monte Carlo, and gives the trial estimator a
// known target (the Table-1 bench re-estimates the paper's parameters from
// a simulated trial on this world).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "core/uncertainty.hpp"
#include "sim/trial.hpp"
#include "stats/alias_table.hpp"

namespace hmdiv::sim {

class TabularWorld final : public World {
 public:
  /// `model` supplies the conditional probabilities; `profile` the demand
  /// mix. Classes must match.
  TabularWorld(core::SequentialModel model, core::DemandProfile profile);

  [[nodiscard]] CaseRecord simulate_case(stats::Rng& rng) override;
  /// Batch kernel: the whole per-case outcome — class, machine failure,
  /// human failure — is one draw from a precomputed Walker alias table
  /// over the *joint* distribution p(x)·p(machine, human | x), hoisted at
  /// construction. Each case consumes exactly 1 uniform (bulk-filled per
  /// fixed-size L1-resident tile) and decodes the joint index with two bit
  /// ops — no virtual call, spec lookup, CDF scan, or conditional draw.
  /// The scalar path draws class / machine / human sequentially (up to 3
  /// uniforms), so the streams differ; this kernel is the canonical
  /// stream for batched trials, equivalent in distribution (the joint
  /// factorisation is exact).
  void simulate_batch(std::span<CaseRecord> out,
                      stats::Rng& rng) const override;
  [[nodiscard]] std::size_t class_count() const override;
  [[nodiscard]] const std::vector<std::string>& class_names() const override;

  /// Counts trial: the per-class outcome table of `case_count` demands, as
  /// one Multinomial(case_count, joint) draw over the 4·K joint cells. The
  /// cases are i.i.d., so this is the count table of a record trial of the
  /// same size in distribution (not in stream), at O(K) cost whatever the
  /// size. Everything the paper estimates from a trial (Eqs. 4, 7-10, the
  /// Wilson intervals, the Beta posteriors, the observed failure rate)
  /// depends on the records only through this table.
  [[nodiscard]] std::vector<core::ClassCounts> simulate_counts(
      std::uint64_t case_count, stats::Rng& rng) const;

  [[nodiscard]] const core::SequentialModel& model() const { return model_; }
  [[nodiscard]] const core::DemandProfile& profile() const { return profile_; }

 private:
  core::SequentialModel model_;
  core::DemandProfile profile_;
  /// The joint outcome distribution, entry 4·x + 2·machine_failed +
  /// human_failed: the counts trial's multinomial weights.
  std::vector<double> joint_;
  /// Alias table over the joint outcome distribution, entry
  /// 4·x + 2·machine_failed + human_failed with probability
  /// p(x)·p(machine|x)·p(human|machine,x); hoisted from model_ and
  /// profile_ once so the batch kernel is one table draw per case.
  stats::AliasTable joint_alias_;
  /// joint_records_[j] is the decoded CaseRecord for joint index j, so
  /// the kernel's decode is a single 16-byte table copy.
  std::vector<CaseRecord> joint_records_;
};

/// The 4·K joint cells of a count table in TabularWorld's joint layout:
/// cell 4·x + 2·machine_failed + human_failed, so the odd cells are the
/// system failures. The input of stats::bootstrap_counts. Throws
/// std::invalid_argument if a class's counts are inconsistent (more
/// failures than the cases they condition on).
[[nodiscard]] std::vector<std::uint64_t> joint_cells(
    std::span<const core::ClassCounts> counts);

/// Observed system failure rate of a table in that layout: the odd cells
/// over all cells. A stats::CountStatistic for bootstrap_counts.
[[nodiscard]] double joint_failure_rate(std::span<const std::uint64_t> cells);

}  // namespace hmdiv::sim
