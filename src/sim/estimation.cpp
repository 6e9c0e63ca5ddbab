#include "sim/estimation.hpp"

#include <stdexcept>

namespace hmdiv::sim {

namespace {

constexpr double kJeffreys = 0.5;

double proportion_or_prior(std::uint64_t k, std::uint64_t n) {
  if (n == 0) {
    // No observations: fall back to the Jeffreys prior mean, flagged by the
    // untouched default interval [0,1].
    return 0.5;
  }
  return static_cast<double>(k) / static_cast<double>(n);
}

double smoothed(std::uint64_t k, std::uint64_t n) {
  return (static_cast<double>(k) + kJeffreys) /
         (static_cast<double>(n) + 2.0 * kJeffreys);
}

}  // namespace

core::SequentialModel EstimationResult::fitted_model() const {
  std::vector<core::ClassConditional> params;
  params.reserve(classes.size());
  for (const auto& e : classes) {
    core::ClassConditional c;
    c.p_machine_fails = e.p_machine_fails;
    c.p_human_fails_given_machine_fails =
        e.counts.machine_failures > 0
            ? e.p_human_fails_given_machine_fails
            : smoothed(0, 0);
    c.p_human_fails_given_machine_succeeds =
        e.counts.cases - e.counts.machine_failures > 0
            ? e.p_human_fails_given_machine_succeeds
            : smoothed(0, 0);
    params.push_back(c);
  }
  return core::SequentialModel(class_names, std::move(params));
}

std::vector<core::ClassCounts> EstimationResult::counts() const {
  std::vector<core::ClassCounts> out;
  out.reserve(classes.size());
  for (const auto& e : classes) out.push_back(e.counts);
  return out;
}

EstimationResult estimate_sequential_model(
    std::vector<std::string> class_names,
    std::span<const core::ClassCounts> counts, double confidence) {
  const std::size_t k = class_names.size();
  if (k == 0) {
    throw std::invalid_argument("estimate_sequential_model: no classes");
  }
  if (counts.size() != k) {
    throw std::invalid_argument(
        "estimate_sequential_model: counts and class names differ in size");
  }
  std::vector<ClassEstimate> classes;
  classes.reserve(k);
  std::vector<double> weights(k);
  for (std::size_t x = 0; x < k; ++x) {
    const core::ClassCounts& c = counts[x];
    if (c.cases == 0) {
      throw std::invalid_argument(
          "estimate_sequential_model: class '" + class_names[x] +
          "' has no cases in the trial");
    }
    if (!c.consistent()) {
      throw std::invalid_argument(
          "estimate_sequential_model: inconsistent counts for class '" +
          class_names[x] + "'");
    }
    ClassEstimate e;
    e.counts = c;
    e.p_machine_fails = proportion_or_prior(c.machine_failures, c.cases);
    e.machine_interval =
        stats::wilson_interval(c.machine_failures, c.cases, confidence);

    const std::uint64_t machine_successes = c.cases - c.machine_failures;
    e.p_human_fails_given_machine_fails = proportion_or_prior(
        c.human_failures_given_machine_failed, c.machine_failures);
    if (c.machine_failures > 0) {
      e.human_given_failure_interval =
          stats::wilson_interval(c.human_failures_given_machine_failed,
                                 c.machine_failures, confidence);
    }
    e.p_human_fails_given_machine_succeeds = proportion_or_prior(
        c.human_failures_given_machine_succeeded, machine_successes);
    if (machine_successes > 0) {
      e.human_given_success_interval =
          stats::wilson_interval(c.human_failures_given_machine_succeeded,
                                 machine_successes, confidence);
    }
    weights[x] = static_cast<double>(c.cases);
    classes.push_back(e);
  }
  core::DemandProfile empirical =
      core::DemandProfile::from_weights(class_names, std::move(weights));
  return EstimationResult{std::move(class_names), std::move(classes),
                          std::move(empirical)};
}

EstimationResult estimate_sequential_model(const TrialData& data,
                                           double confidence) {
  const std::size_t k = data.class_names.size();
  std::vector<core::ClassCounts> counts(k);
  for (const auto& r : data.records) {
    if (r.class_index >= k) {
      throw std::invalid_argument(
          "estimate_sequential_model: record class out of range");
    }
    core::ClassCounts& c = counts[r.class_index];
    ++c.cases;
    if (r.machine_failed) {
      ++c.machine_failures;
      if (r.human_failed) ++c.human_failures_given_machine_failed;
    } else if (r.human_failed) {
      ++c.human_failures_given_machine_succeeded;
    }
  }
  return estimate_sequential_model(data.class_names, counts, confidence);
}

std::vector<stats::TestResult> association_by_class(const TrialData& data) {
  const std::size_t k = data.class_names.size();
  struct Cells {
    std::uint64_t mf_hf = 0, mf_hs = 0, ms_hf = 0, ms_hs = 0;
  };
  std::vector<Cells> cells(k);
  for (const auto& r : data.records) {
    Cells& c = cells.at(r.class_index);
    if (r.machine_failed) {
      (r.human_failed ? c.mf_hf : c.mf_hs) += 1;
    } else {
      (r.human_failed ? c.ms_hf : c.ms_hs) += 1;
    }
  }
  std::vector<stats::TestResult> out;
  out.reserve(k);
  for (const auto& c : cells) {
    out.push_back(
        stats::chi_square_independence_2x2(c.mf_hf, c.mf_hs, c.ms_hf, c.ms_hs));
  }
  return out;
}

}  // namespace hmdiv::sim
