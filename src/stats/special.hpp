// Special functions needed by the statistics layer: regularized incomplete
// beta and gamma functions, the standard normal CDF and quantile, and log
// binomial coefficients. Implementations follow the classic Numerical
// Recipes continued-fraction / series forms with double precision tolerances.
#pragma once

#include <span>

namespace hmdiv::stats {

/// ln(n!) = lgamma(n + 1). Values for n < 4096 come from a table computed
/// once per process (each entry is the std::lgamma value, so cached and
/// uncached results are bit-identical); larger n fall back to std::lgamma.
/// Hot pmf/likelihood loops call this instead of paying three lgamma
/// evaluations per term.
[[nodiscard]] double log_factorial(unsigned long long n);

/// log(n choose k) for 0 <= k <= n, via the cached log_factorial table.
[[nodiscard]] double log_binomial_coefficient(unsigned long long n,
                                              unsigned long long k);

/// Regularized incomplete beta function I_x(a, b) for a,b > 0, x in [0,1].
[[nodiscard]] double regularized_incomplete_beta(double a, double b, double x);

/// Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.
[[nodiscard]] double regularized_lower_incomplete_gamma(double a, double x);

/// Standard normal cumulative distribution function. Cody's rational
/// Chebyshev erfc approximation (max relative error vs a correctly rounded
/// reference ~3e-15 on |z| <= 8); implemented without libm calls so the
/// batched overload below auto-vectorises, and compiled with FP contraction
/// off so scalar and batched paths are bit-identical.
[[nodiscard]] double normal_cdf(double z);

/// Batched standard normal CDF: out[i] = normal_cdf(z[i]) for every i,
/// bit-identical to the scalar overload. When `z` is monotone (ascending or
/// descending — the layout threshold sweeps produce) the evaluation runs
/// branch-free over contiguous approximation-region segments and
/// auto-vectorises; otherwise it falls back to a scalar per-element loop.
/// Requires out.size() == z.size(); `z` and `out` must not overlap.
void normal_cdf(std::span<const double> z, std::span<double> out);

/// Standard normal quantile (inverse CDF) for p in (0,1).
/// Acklam's rational approximation refined by one Halley step; |err| < 1e-12.
[[nodiscard]] double normal_quantile(double p);

}  // namespace hmdiv::stats
