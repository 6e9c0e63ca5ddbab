// Exact expectations over one class's (human, machine) difficulty.
//
// Every "ground truth" and "exact" value of the mechanistic worlds is the
// expectation of a few smooth functions of (human, machine) difficulty
// over one class's bivariate normal (CaseClassSpec): machine and reader
// outcomes enter through their analytic conditional probabilities, so
// only the two difficulty dimensions are left to integrate. This module
// integrates them with one deterministic rule, so no ground-truth value
// depends on a seed or a sample count.
//
// The rule is a nested Gauss-Legendre rule in standard-normal
// coordinates on ±10 standard deviations: h = mu_h + sigma_h·z1 and
// m = mu_m + sigma_m·(rho·z1 + sqrt(1 − rho²)·z2). The outer (human) axis
// is split at the caller's kinks, the difficulties where an integrand
// bends (ReaderModel::misclassification_kinks); everywhere else the
// integrands are smooth. An axis whose sigma is 0 (or the inner axis at
// rho = ±1) collapses to one node. Each axis, and each piece of the split
// human axis, gets n = max(64, ceil(56·slope·sigma)) nodes, where sigma is
// the larger of the two difficulty sigmas and slope the steepest logistic
// slope in the integrands, so the rule resolves the logistic transitions
// at any spread. n and 2n nodes agree to 1e-12 (tests); the work grows as
// (slope·sigma)², about 0.1 s at sigma = 20.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <tuple>
#include <type_traits>

#include "exec/function_ref.hpp"
#include "sim/case_generator.hpp"
#include "stats/summary.hpp"

namespace hmdiv::sim {

namespace detail {

/// Nodes per axis of the rule for `spec` (see the file comment).
[[nodiscard]] std::size_t difficulty_nodes_per_axis(const CaseClassSpec& spec,
                                                    double steepest_slope);

/// Calls visit(h, m, weight) at every node of the rule with
/// `nodes_per_axis` nodes per axis; the weights sum to 1.
void for_each_difficulty_node(
    const CaseClassSpec& spec, std::span<const double> human_kinks,
    std::size_t nodes_per_axis,
    exec::FunctionRef<void(double, double, double)> visit);

/// expect_over_difficulties at an explicit node count, for convergence
/// tests.
template <class Integrand>
[[nodiscard]] auto expect_over_difficulties(const CaseClassSpec& spec,
                                            std::span<const double> human_kinks,
                                            std::size_t nodes_per_axis,
                                            Integrand&& integrand) {
  using Values = std::invoke_result_t<Integrand&, double, double>;
  // Compensated sums: a plain sum over the (3n)·n nodes of a wide class
  // drifts by ~1e-12.
  std::array<stats::KahanAccumulator, std::tuple_size_v<Values>> sums;
  for_each_difficulty_node(
      spec, human_kinks, nodes_per_axis,
      [&](double human, double machine, double weight) {
        const Values values = integrand(human, machine);
        for (std::size_t i = 0; i < sums.size(); ++i) {
          sums[i].add(weight * values[i]);
        }
      });
  Values expectations{};
  for (std::size_t i = 0; i < sums.size(); ++i) {
    expectations[i] = sums[i].total();
  }
  return expectations;
}

}  // namespace detail

/// E[integrand(H, M)] for (H, M) drawn from `spec`'s bivariate normal.
/// `integrand(h, m)` returns a std::array<double, N>, so one pass yields
/// all of a caller's sums. `human_kinks` lists the human difficulties
/// where the integrand is not smooth (any order; duplicates and values
/// outside ±10 sigma are fine). `steepest_slope` is the steepest logistic
/// slope the integrand uses (CadtModel sensitivity_slope, ReaderModel
/// detection_slope). Throws std::invalid_argument on a non-finite sigma
/// or a negative or non-finite slope.
template <class Integrand>
[[nodiscard]] auto expect_over_difficulties(const CaseClassSpec& spec,
                                            std::span<const double> human_kinks,
                                            double steepest_slope,
                                            Integrand&& integrand) {
  const std::size_t nodes =
      detail::difficulty_nodes_per_axis(spec, steepest_slope);
  return detail::expect_over_difficulties(spec, human_kinks, nodes, integrand);
}

}  // namespace hmdiv::sim
