// core layer adapter: the only place the benchmark calls into src/core.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "adapters/trace.hpp"
#include "core/analysis_report.hpp"
#include "core/extrapolation.hpp"
#include "core/model_io.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/uncertainty.hpp"
#include "exec/config.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"

namespace perfbench::core_layer {

namespace hc = hmdiv::core;

/// One (model, trial profile, field profile) triple.
struct Inputs {
  hc::SequentialModel model;
  hc::DemandProfile trial;
  hc::DemandProfile field;
};

inline Inputs paper_example() {
  return {hc::paper::example_model(), hc::paper::trial_profile(),
          hc::paper::field_profile()};
}

inline Inputs parse_inputs(const std::string& model_text,
                           const std::string& trial_text,
                           const std::string& field_text) {
  return {hc::parse_sequential_model(model_text),
          hc::parse_demand_profile(trial_text),
          hc::parse_demand_profile(field_text)};
}

/// The trade-off analyser both the CLI profile workload and the daemon
/// build from a model: binormal machine with mu = -probit(PMf) per class.
inline hc::TradeoffAnalyzer make_analyzer(const Inputs& in) {
  hc::BinormalMachine machine;
  std::vector<hc::HumanFnResponse> fn_response;
  std::vector<hc::HumanFpResponse> fp_response;
  for (std::size_t x = 0; x < in.model.class_count(); ++x) {
    const auto& p = in.model.parameters(x);
    const double p_mf =
        std::min(std::max(p.p_machine_fails, 1e-9), 1.0 - 1e-9);
    machine.cancer_class_means.push_back(-hmdiv::stats::normal_quantile(p_mf));
    machine.normal_class_means.push_back(-2.0);
    fn_response.push_back({p.p_human_fails_given_machine_succeeds,
                           p.p_human_fails_given_machine_fails});
    fp_response.push_back({0.1, 0.02});
  }
  return hc::TradeoffAnalyzer(machine, in.field, fn_response, in.field,
                              fp_response, /*prevalence=*/0.007);
}

/// The CLI's evenly spaced threshold grid on [-4, 4].
inline std::vector<double> grid(std::size_t steps) {
  std::vector<double> thresholds(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(steps - 1);
  }
  return thresholds;
}

/// Per-class counts at `cases` per class implied by the model, the way the
/// daemon derives the posterior for its uq endpoint.
inline std::vector<hc::ClassCounts> synthetic_counts(
    const hc::SequentialModel& model, std::uint64_t cases) {
  std::vector<hc::ClassCounts> counts;
  const auto scaled = [](double p, std::uint64_t n) {
    return std::min(n, static_cast<std::uint64_t>(
                           std::llround(p * static_cast<double>(n))));
  };
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const auto& p = model.parameters(x);
    hc::ClassCounts c;
    c.cases = cases;
    c.machine_failures = scaled(p.p_machine_fails, cases);
    c.human_failures_given_machine_failed =
        scaled(p.p_human_fails_given_machine_fails, c.machine_failures);
    c.human_failures_given_machine_succeeded = scaled(
        p.p_human_fails_given_machine_succeeds, cases - c.machine_failures);
    counts.push_back(c);
  }
  return counts;
}

inline hc::UncertainPrediction predict(const hc::PosteriorModelSampler& s,
                                       const hc::DemandProfile& profile,
                                       std::uint64_t seed, std::size_t draws,
                                       unsigned threads) {
  trace::Span span("core.uq");
  hmdiv::stats::Rng rng(seed);
  return s.predict(profile, rng, draws, 0.95, hmdiv::exec::Config{threads});
}

inline std::vector<hc::SystemOperatingPoint> sweep(
    const hc::TradeoffAnalyzer& analyzer,
    const std::vector<double>& thresholds, unsigned threads) {
  trace::Span span("core.sweep");
  return analyzer.sweep(thresholds, hmdiv::exec::Config{threads});
}

inline hc::SystemOperatingPoint minimise(const hc::TradeoffAnalyzer& analyzer,
                                         std::size_t steps, unsigned threads) {
  trace::Span span("core.minimise");
  return analyzer.minimise_cost(/*cost_fn=*/500.0, /*cost_fp=*/20.0, -4.0,
                                4.0, steps, hmdiv::exec::Config{threads});
}

inline hc::ScenarioResult whatif(const hc::Extrapolator& extrapolator,
                                 const hc::Scenario& scenario) {
  trace::Span span("core.whatif");
  return extrapolator.evaluate(scenario);
}

inline std::string report(const Inputs& in) {
  trace::Span span("core.report");
  return hc::analysis_report(in.model, in.trial, in.field);
}

}  // namespace perfbench::core_layer
