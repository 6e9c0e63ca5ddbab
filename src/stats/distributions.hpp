// Probability distributions used by the models, estimators and simulators:
// binomial and beta pmf/pdf/cdf, and a validated discrete distribution
// type used for demand profiles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stats/alias_table.hpp"

namespace hmdiv::stats {

class Rng;

/// Binomial(n, p) probability mass at k.
[[nodiscard]] double binomial_pmf(std::uint64_t n, double p, std::uint64_t k);

/// Binomial(n, p) lower-tail probability P(X <= k), computed via the
/// regularized incomplete beta identity (numerically stable for large n).
[[nodiscard]] double binomial_cdf(std::uint64_t n, double p, std::uint64_t k);

/// Beta(a, b) density at x in [0,1].
[[nodiscard]] double beta_pdf(double a, double b, double x);

/// Beta(a, b) cumulative distribution at x.
[[nodiscard]] double beta_cdf(double a, double b, double x);

/// A validated probability distribution over a fixed number of categories.
///
/// Invariants: all probabilities are finite, non-negative, and sum to 1
/// within 1e-9 (the constructor renormalises exactly so that downstream
/// weighted sums are consistent).
class DiscreteDistribution {
 public:
  /// Throws std::invalid_argument if `probabilities` is empty, contains a
  /// negative/non-finite value, or sums to something not within 1e-9 of 1.
  explicit DiscreteDistribution(std::vector<double> probabilities);

  /// Builds from non-negative weights, normalising them to sum to 1.
  [[nodiscard]] static DiscreteDistribution from_weights(
      std::vector<double> weights);

  /// Builds from probabilities that are *already* normalised, validating
  /// them (finite, >= 0, sum within 1e-9 of 1) but storing them untouched —
  /// no renormalising division. This is the wire round-trip path: a
  /// distribution serialized as IEEE-754 bit patterns rebuilds with the
  /// exact same probabilities (the public constructor's `p /= total` could
  /// move the last ulp when the stored sum differs from 1 by one rounding),
  /// so alias tables — and every case drawn through them — match the
  /// originating process bit-for-bit.
  [[nodiscard]] static DiscreteDistribution from_normalised(
      std::vector<double> probabilities);

  [[nodiscard]] std::size_t size() const { return probabilities_.size(); }
  [[nodiscard]] double operator[](std::size_t i) const {
    return probabilities_[i];
  }
  [[nodiscard]] std::span<const double> probabilities() const {
    return probabilities_;
  }

  /// Samples a category index in O(1) via the precomputed alias table,
  /// consuming exactly one uniform draw.
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  /// The Walker alias table, built once at construction. Batched kernels
  /// use it directly to map bulk-filled uniforms to category indices.
  [[nodiscard]] const AliasTable& alias() const { return alias_; }

  /// Expectation of `values[i]` under this distribution; sizes must match.
  [[nodiscard]] double expectation(std::span<const double> values) const;

 private:
  struct NormalisedTag {};
  DiscreteDistribution(NormalisedTag, std::vector<double> probabilities);

  std::vector<double> probabilities_;
  AliasTable alias_;
};

}  // namespace hmdiv::stats
