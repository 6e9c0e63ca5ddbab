// Deterministic, seedable random number generation.
//
// All stochastic code in this repository draws from an explicitly passed
// `Rng` — there is no global generator — so every simulation, trial and
// bench is reproducible from its seed. The engine is xoshiro256** seeded
// through SplitMix64, the standard recommendation of its authors; it is much
// faster than std::mt19937_64 and has no detectable linear artefacts in the
// output bits we use.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace hmdiv::stats {

/// SplitMix64 step: used for seeding and for cheap stateless hashing of
/// (seed, stream) pairs into independent engine states.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** pseudo-random engine with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator, so it can also feed <random>
/// distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine deterministically from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Seeds substream `stream` of `seed`: both words are whitened through
  /// SplitMix64 before they meet, so streams 0, 1, 2, … of one seed are as
  /// unrelated as different seeds, and Rng(s, 0) differs from Rng(s).
  /// This is the deterministic-parallelism workhorse: give chunk/replicate
  /// k the engine Rng(seed, k) and the result no longer depends on which
  /// thread runs it.
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept { return next_u64(); }
  result_type next_u64() noexcept;

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() noexcept;

  /// Fills `out` with uniform doubles in [0, 1): bit-identical to calling
  /// uniform() out.size() times, but the whole loop lives in one TU with
  /// the engine so it compiles to a tight inlined kernel. This is the bulk
  /// primitive behind the batched simulation kernels.
  void fill_uniform(std::span<double> out) noexcept;

  /// Fills `out` with standard normal deviates: bit-identical to calling
  /// normal() out.size() times (including the cached-spare behaviour).
  void fill_normal(std::span<double> out) noexcept;

  /// Uniform double in [lo, hi); requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound) without modulo bias; bound must be > 0.
  std::uint64_t uniform_index(std::uint64_t bound);

  /// Bernoulli draw; p is clamped to [0, 1].
  bool bernoulli(double p) noexcept;

  /// Standard normal via Marsaglia polar method (cached spare deviate).
  double normal() noexcept;
  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Precomputed Marsaglia–Tsang constants for repeated Gamma(shape, 1)
  /// draws at a fixed shape (posterior samplers draw thousands of times
  /// from the same handful of shapes). gamma(const GammaPrep&) is
  /// bit-identical to gamma(shape) — the constants are derived with
  /// exactly the arithmetic gamma(shape) would perform per call.
  struct GammaPrep {
    explicit GammaPrep(double shape);
    double d;          ///< (effective shape) − 1/3
    double c;          ///< 1 / sqrt(9 d)
    double inv_shape;  ///< 1/shape, used by the boosted (<1) path
    bool boosted;      ///< shape < 1: draw via Gamma(shape+1) and scale
  };

  /// Gamma(shape, 1) via Marsaglia–Tsang; shape must be > 0.
  double gamma(double shape);

  /// Gamma draw with precomputed constants; same stream consumption and
  /// bit-identical values vs gamma(shape) for the prep's shape.
  double gamma(const GammaPrep& prep);

  /// Beta(a, b) via two gamma draws; a, b must be > 0.
  double beta(double a, double b);

  /// Beta draw with precomputed per-parameter constants; bit-identical to
  /// beta(a, b) for the preps' shapes.
  double beta(const GammaPrep& a, const GammaPrep& b);

  /// Fills `out` with Gamma(shape, 1) draws for the prep's shape. Batched
  /// Marsaglia–Tsang: each candidate lane takes one engine step, split
  /// into a squeeze uniform and a normal from Acklam's inverse-CDF
  /// rational (icdf_central, fused with the squeeze test into the
  /// branch-free gamma_candidate_block, and icdf_lower_tail for the ~5% of
  /// lanes in a tail). The rejected lanes are compacted into an index list
  /// and refilled in blocks until none remain. Equivalent to gamma(prep) in
  /// distribution, NOT bitwise (different stream consumption). All scratch
  /// is fixed-size stack blocks — no heap allocation at all.
  void fill_gamma(const GammaPrep& prep, std::span<double> out) noexcept;

  /// Fills `out` with Beta(a, b) draws as X/(X+Y) from two fill_gamma
  /// blocks. Equivalent to beta(a, b) in distribution, NOT bitwise.
  void fill_beta(const GammaPrep& a, const GammaPrep& b,
                 std::span<double> out) noexcept;

  /// Binomial(n, p), exact, in O(1) expected time for any n. Draws for
  /// p' = min(p, 1 − p) and reflects. When n·p' < 10 it inverts the CDF by
  /// sequential search from 0 (about n·p' + 1 steps, one uniform per
  /// attempt); otherwise it runs Hörmann's BTRS transformed rejection
  /// (W. Hörmann, "The generation of binomial random variates", 1993):
  /// two uniforms per attempt and a bounded expected number of attempts.
  /// Throws std::invalid_argument if p is outside [0, 1].
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Fills out[i] with Multinomial(n, weights) counts through conditional
  /// binomials in cell order: cell i draws Binomial(remaining n,
  /// w_i / remaining weight), the ratio clamped to [0, 1], and the last
  /// cell with positive weight takes what is left, so the counts always
  /// sum to n. The weights need not be normalised (integer counts given as
  /// doubles keep the running remainder exact). Throws
  /// std::invalid_argument if the sizes differ, a weight is negative or not
  /// finite, or n > 0 with no positive weight.
  void multinomial(std::uint64_t n, std::span<const double> weights,
                   std::span<std::uint64_t> out);

  /// Samples an index from a discrete distribution given non-negative
  /// weights (not necessarily normalised). Throws if all weights are zero.
  std::size_t discrete(std::span<const double> weights);

  /// Returns a new engine whose stream is independent of this one (it
  /// hashes the current state with `stream_id`). Use to give each
  /// simulated entity — reader, CADT, case stream — its own generator.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  /// One engine output per lane, split into two mid-tread 32-bit uniforms
  /// (k + 0.5)·2⁻³², both strictly inside (0, 1): p feeds the inverse-CDF
  /// normal, u the squeeze test. Halves the engine traffic of the batched
  /// gamma kernel; the 2⁻³² grid perturbs the distribution at the 2⁻³³
  /// level, far below the batched kernels' distributional-equivalence
  /// contract (the inverse-CDF rational's own error is ~1e-9). Large spans
  /// run an interleaved 8-lane xoshiro256+ kernel whose lane states are
  /// derived deterministically from one member-engine draw (so the serial
  /// engine recurrence stops being the bottleneck); short spans step the
  /// member engine directly.
  void fill_uniform_pair(std::span<double> p, double* u) noexcept;

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace hmdiv::stats
