#include "stats/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace hmdiv::stats {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; SplitMix64 cannot emit
  // four consecutive zeros, but guard anyway for clarity.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Whiten seed and stream through independent SplitMix64 chains before
  // combining, then expand the combined word into the state. A raw XOR of
  // the two inputs would alias (s ^ k, 0) with (s, k); hashing each side
  // first removes that structure.
  std::uint64_t seed_chain = seed;
  std::uint64_t stream_chain = ~stream;
  std::uint64_t sm =
      splitmix64(seed_chain) ^ (splitmix64(stream_chain) + 0x9E3779B97F4A7C15ULL);
  for (auto& word : state_) word = splitmix64(sm);
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void Rng::fill_uniform(std::span<double> out) noexcept {
  for (double& v : out) {
    v = static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
}

void Rng::fill_normal(std::span<double> out) noexcept {
  for (double& v : out) v = normal();
}

namespace {

// Acklam's rational approximation to the inverse normal CDF (relative
// error ~1.15e-9 over (0,1)). special.cpp's normal_quantile refines the
// same rational with a Halley step for interval endpoints; here the raw
// rational is enough — a ~1e-9 perturbation of a random deviate is far
// below anything a distributional (KS/chi-square) test can resolve, and
// skipping the refinement keeps the central path free of libm calls so it
// vectorises.
constexpr double kIcdfA[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                              -2.759285104469687e+02, 1.383577518672690e+02,
                              -3.066479806614716e+01, 2.506628277459239e+00};
constexpr double kIcdfB[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                              -1.556989798598866e+02, 6.680131188771972e+01,
                              -1.328068155288572e+01};
constexpr double kIcdfC[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                              -2.400758277161838e+00, -2.549732539343734e+00,
                              4.374664141464968e+00,  2.938163982698783e+00};
constexpr double kIcdfD[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
constexpr double kIcdfPLow = 0.02425;

// Same gating as special.cpp: target_clones resolves through an ifunc,
// which runs before sanitizer runtimes initialise; sanitized builds take
// the default codegen. The three kernels are cloned for avx2 and default
// only. Neither target has FMA, so neither clone contracts a multiply-add:
// both round every operation alike, and clone selection changes
// vectorisation only. An avx512f clone would differ in both respects: it
// fuses multiply-adds in the gamma kernel (one rounding where the others
// round twice) without measuring faster, and GCC 12 scalarises the
// xoshiro state recurrence of uniform_pair_block into GPRs under it.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define HMDIV_RNG_TARGET_CLONES
#else
#define HMDIV_RNG_TARGET_CLONES \
  __attribute__((target_clones("avx2", "default")))
#endif

/// Central-region rational; only valid for p in [kIcdfPLow, 1-kIcdfPLow]
/// but finite everywhere, so it can run unconditionally over a block.
inline double icdf_central(double p) noexcept {
  const double q = p - 0.5;
  const double r = q * q;
  const double num =
      (((((kIcdfA[0] * r + kIcdfA[1]) * r + kIcdfA[2]) * r + kIcdfA[3]) * r +
        kIcdfA[4]) *
           r +
       kIcdfA[5]) *
      q;
  const double den =
      ((((kIcdfB[0] * r + kIcdfB[1]) * r + kIcdfB[2]) * r + kIcdfB[3]) * r +
       kIcdfB[4]) *
          r +
      1.0;
  return num / den;
}

/// Lower-tail branch for p in (0, kIcdfPLow); returns a negative deviate.
/// The upper tail is the mirror image: -icdf_lower_tail(1 - p).
inline double icdf_lower_tail(double p) noexcept {
  const double q = std::sqrt(-2.0 * std::log(p));
  return (((((kIcdfC[0] * q + kIcdfC[1]) * q + kIcdfC[2]) * q + kIcdfC[3]) *
               q +
           kIcdfC[4]) *
              q +
          kIcdfC[5]) /
         ((((kIcdfD[0] * q + kIcdfD[1]) * q + kIcdfD[2]) * q + kIcdfD[3]) * q +
          1.0);
}

/// Stack-block lane width for the batched kernels: big enough to amortise
/// loop overheads and keep the vector units busy, small enough that the
/// scratch (a few such arrays) stays a handful of KiB of stack.
constexpr std::size_t kFillBlock = 256;

/// Fused pass 1 of fill_gamma: run the central inverse-CDF rational and
/// the Marsaglia–Tsang squeeze in one branch-free traversal. Writes the
/// normal deviate (z), the candidate value d·v³ and the squeeze flag per
/// lane. `p` and `u` come from fill_uniform_pair, already strictly inside
/// (0, 1). Lanes whose p landed in an inverse-CDF tail hold garbage until
/// the caller's scalar fixup.
HMDIV_RNG_TARGET_CLONES void gamma_candidate_block(
    const double* __restrict__ p, const double* __restrict__ u, double d,
    double c, double* __restrict__ z, double* __restrict__ value,
    unsigned char* __restrict__ ok, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double zz = icdf_central(p[j]);
    z[j] = zz;
    const double v = 1.0 + c * zz;
    value[j] = d * (v * v * v);
    const double z2 = zz * zz;
    ok[j] =
        static_cast<unsigned char>((v > 0.0) & (u[j] < 1.0 - 0.0331 * z2 * z2));
  }
}

/// Lane-wise X/(X+Y) reduction of two gamma blocks to a beta block.
HMDIV_RNG_TARGET_CLONES void beta_combine_block(double* __restrict__ x,
                                                const double* __restrict__ y,
                                                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) x[j] = x[j] / (x[j] + y[j]);
}

/// Interleave width of the vectorised uniform-pair kernel: 8 × 64-bit
/// states fill one AVX-512 register (two AVX2 registers), and GCC unrolls
/// the inner lane loop into straight vector code.
constexpr std::size_t kUniformLanes = 8;

/// Interleaved xoshiro256+ block: each lane j runs its own engine
/// (SoA state s0..s3), one output per lane per step, split into the
/// (hi, lo) mid-tread uniforms of fill_uniform_pair. xoshiro256+ instead
/// of ** because the + scrambler is a single add — the ** variant's 64-bit
/// multiplies have no AVX2 instruction and de-vectorise the loop. Its known
/// weakness (linear artefacts in the lowest output bits) lands in the low
/// bits of the squeeze uniform `u`, perturbing it below the 2⁻³⁰ level —
/// invisible to the distributional contract of the batched kernels. The
/// u64→double conversions use the 2⁵² exponent-offset trick because AVX2
/// has no unsigned-quad convert; the result is bit-identical to
/// static_cast (both halves are < 2³², exactly representable).
/// n must be a multiple of kUniformLanes.
HMDIV_RNG_TARGET_CLONES void uniform_pair_block(
    std::uint64_t* __restrict__ s0, std::uint64_t* __restrict__ s1,
    std::uint64_t* __restrict__ s2, std::uint64_t* __restrict__ s3,
    double* __restrict__ p, double* __restrict__ u, std::size_t n) {
  constexpr double kOffset = 0x1.0p52 - 0.5;       // folds the +0.5 mid-tread
  constexpr std::uint64_t kExp52 = 0x4330000000000000ULL;  // 2⁵² exponent
  std::uint64_t r[kUniformLanes];
  // Two inner loops, not one: mixing the integer state recurrence with the
  // double conversions in a single body makes GCC's SLP vectoriser bail on
  // the conversion half and extract lanes to scalar registers.
  for (std::size_t i = 0; i < n; i += kUniformLanes) {
    for (std::size_t j = 0; j < kUniformLanes; ++j) r[j] = s0[j] + s3[j];
    for (std::size_t j = 0; j < kUniformLanes; ++j) {
      const std::uint64_t t = s1[j] << 17;
      s2[j] ^= s0[j];
      s3[j] ^= s1[j];
      s1[j] ^= s2[j];
      s0[j] ^= s3[j];
      s2[j] ^= t;
      s3[j] = rotl(s3[j], 45);
    }
    for (std::size_t j = 0; j < kUniformLanes; ++j) {
      const std::uint64_t hi = (r[j] >> 32) | kExp52;
      const std::uint64_t lo = (r[j] & 0xFFFFFFFFULL) | kExp52;
      p[i + j] = (std::bit_cast<double>(hi) - kOffset) * 0x1.0p-32;
      u[i + j] = (std::bit_cast<double>(lo) - kOffset) * 0x1.0p-32;
    }
  }
}

/// Exact Marsaglia–Tsang decision for a lane that failed the squeeze:
/// accept iff ln(u) < 0.5·x² + d·(1 − v³ + ln v³), v > 0 (u == 0 rejects,
/// matching gamma_core's guard). Before paying for libm logs, two cheap
/// exact inequalities resolve almost every lane:
///   ln u ≤ u − 1            and   ln u ≥ 1 − 1/u          (u > 0)
///   ln v ≥ 2(v−1)/(v+1)     (v ≥ 1),   ln v ≥ 1 − 1/v     (v ≤ 1)
///   ln v ≤ v − 1            (all v > 0)
/// Their gaps are O((v−1)³) and O((u−1)²) — and squeeze-failed lanes have
/// u near 1 — so only the sliver where the bounds bracket the threshold
/// still calls std::log. (The bounds are evaluated in floating point, so a
/// lane within ~1 ulp of the exact threshold may flip; the batched kernels
/// promise distributional equivalence, and this is far below what any
/// distributional test can resolve.)
inline bool gamma_accept_slow(double u, double x2, double d,
                              double v) noexcept {
  if (u <= 0.0) return false;
  const double v3 = v * v * v;
  const double base = 0.5 * x2 + d * (1.0 - v3);
  const double lb_lnv =
      v >= 1.0 ? 2.0 * (v - 1.0) / (v + 1.0) : 1.0 - 1.0 / v;
  if (u - 1.0 < base + 3.0 * d * lb_lnv) return true;
  if (1.0 - 1.0 / u > base + 3.0 * d * (v - 1.0)) return false;
  return std::log(u) < base + d * std::log(v3);
}

}  // namespace

void Rng::fill_uniform_pair(std::span<double> p, double* u) noexcept {
  const std::size_t n = p.size();
  std::size_t start = 0;
  if (n >= kUniformLanes * 8) {
    // Large span (the main candidate blocks): hand the bulk to the
    // interleaved kernel. Lane states are derived from ONE member-engine
    // draw through a SplitMix64 chain — the same whitening the (seed,
    // stream) constructor uses — so the lanes are as unrelated as
    // different seeds and the expansion is deterministic: one call, one
    // member step, same outputs every time.
    std::uint64_t sm = next_u64();
    std::uint64_t s0[kUniformLanes];
    std::uint64_t s1[kUniformLanes];
    std::uint64_t s2[kUniformLanes];
    std::uint64_t s3[kUniformLanes];
    for (std::size_t j = 0; j < kUniformLanes; ++j) {
      s0[j] = splitmix64(sm);
      s1[j] = splitmix64(sm);
      s2[j] = splitmix64(sm);
      s3[j] = splitmix64(sm);
      if (s0[j] == 0 && s1[j] == 0 && s2[j] == 0 && s3[j] == 0) s0[j] = 1;
    }
    start = n - n % kUniformLanes;
    uniform_pair_block(s0, s1, s2, s3, p.data(), u, start);
  }
  // Short spans (refill rounds touch only the few rejected lanes) and the
  // vector remainder: step the member engine directly.
  for (std::size_t j = start; j < n; ++j) {
    const std::uint64_t r = next_u64();
    p[j] = (static_cast<double>(r >> 32) + 0.5) * 0x1.0p-32;
    u[j] = (static_cast<double>(r & 0xFFFFFFFFULL) + 0.5) * 0x1.0p-32;
  }
}

void Rng::fill_gamma(const GammaPrep& prep, std::span<double> out) noexcept {
  double p[kFillBlock];
  double z[kFillBlock];
  double u[kFillBlock];
  std::uint32_t idx[kFillBlock];
  unsigned char ok[kFillBlock];
  const double d = prep.d;
  const double c = prep.c;
  for (std::size_t start = 0; start < out.size(); start += kFillBlock) {
    const std::size_t m = std::min(kFillBlock, out.size() - start);
    double* block = out.data() + start;
    fill_uniform_pair({p, m}, u);
    // Pass 1 (vectorised, fused): inverse-CDF normal + candidate d·v³ +
    // squeeze flag in one traversal.
    gamma_candidate_block(p, u, d, c, z, block, ok, m);
    // Pass 2 (one scalar traversal): the ~4.85% of lanes whose uniform
    // fell in an inverse-CDF tail redo the candidate with the scalar tail
    // branch; lanes that failed the squeeze get the exact log test. The
    // survivors' candidate values are already in place; true rejections
    // (v <= 0 or log test failed) are compacted into `idx` for refill.
    std::size_t pending = 0;
    for (std::size_t j = 0; j < m; ++j) {
      double zz = z[j];
      if (p[j] < kIcdfPLow || p[j] > 1.0 - kIcdfPLow) {
        zz = p[j] < kIcdfPLow ? icdf_lower_tail(p[j])
                              : -icdf_lower_tail(1.0 - p[j]);
        const double v = 1.0 + c * zz;
        const double z2 = zz * zz;
        if (v > 0.0 && (u[j] < 1.0 - 0.0331 * z2 * z2 ||
                        gamma_accept_slow(u[j], z2, d, v))) {
          block[j] = d * (v * v * v);
          continue;
        }
      } else if (ok[j]) {
        continue;
      } else {
        const double v = 1.0 + c * zz;
        if (v > 0.0 && gamma_accept_slow(u[j], zz * zz, d, v)) {
          continue;  // block[j] already holds d·v³
        }
      }
      idx[pending++] = static_cast<std::uint32_t>(j);
    }
    // Refill rounds: regenerate candidates only for the rejected lanes
    // (typically a few percent, so one short round ends almost all blocks).
    while (pending > 0) {
      fill_uniform_pair({p, pending}, u);
      std::size_t rejected = 0;
      for (std::size_t k = 0; k < pending; ++k) {
        const std::uint32_t j = idx[k];
        const double pp = p[k];
        const double zz = pp < kIcdfPLow ? icdf_lower_tail(pp)
                          : pp > 1.0 - kIcdfPLow
                              ? -icdf_lower_tail(1.0 - pp)
                              : icdf_central(pp);
        const double v = 1.0 + c * zz;
        if (v > 0.0) {
          const double uu = u[k];
          const double z2 = zz * zz;
          if (uu < 1.0 - 0.0331 * z2 * z2 ||
              gamma_accept_slow(uu, z2, d, v)) {
            block[j] = d * (v * v * v);
            continue;
          }
        }
        idx[rejected++] = j;
      }
      pending = rejected;
    }
    if (prep.boosted) {
      // Shape < 1: scale the Gamma(shape+1) block by u^(1/shape), the
      // Marsaglia–Tsang boost. The scalar path draws its uniform before
      // the gamma; the batched path draws the whole block after — a
      // different stream mapping, same distribution.
      fill_uniform({u, m});
      for (std::size_t j = 0; j < m; ++j) {
        block[j] *= std::pow(u[j], prep.inv_shape);
      }
    }
  }
}

void Rng::fill_beta(const GammaPrep& a, const GammaPrep& b,
                    std::span<double> out) noexcept {
  double y[kFillBlock];
  for (std::size_t start = 0; start < out.size(); start += kFillBlock) {
    const std::size_t m = std::min(kFillBlock, out.size() - start);
    double* block = out.data() + start;
    fill_gamma(a, {block, m});
    fill_gamma(b, {y, m});
    beta_combine_block(block, y, m);
  }
}

double Rng::uniform(double lo, double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::uniform_index: bound == 0");
  // Rejection sampling over the largest multiple of `bound` <= 2^64.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sigma) {
  if (sigma < 0.0) throw std::invalid_argument("Rng::normal: sigma < 0");
  return mean + sigma * normal();
}

Rng::GammaPrep::GammaPrep(double shape) {
  if (shape <= 0.0) throw std::invalid_argument("Rng::GammaPrep: shape <= 0");
  boosted = shape < 1.0;
  const double effective = boosted ? shape + 1.0 : shape;
  d = effective - 1.0 / 3.0;
  c = 1.0 / std::sqrt(9.0 * d);
  inv_shape = 1.0 / shape;
}

namespace {

/// The Marsaglia–Tsang acceptance loop for effective shape >= 1, with the
/// per-shape constants hoisted out. Both gamma overloads funnel here so
/// their streams and values agree exactly.
double gamma_core(Rng& rng, double d, double c) {
  for (;;) {
    double x, v;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

}  // namespace

double Rng::gamma(double shape) {
  if (shape <= 0.0) throw std::invalid_argument("Rng::gamma: shape <= 0");
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang note). The uniform
    // is drawn *before* the boosted gamma, and GammaPrep's path preserves
    // that order.
    const double u = uniform();
    const double d = (shape + 1.0) - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    return gamma_core(*this, d, c) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  return gamma_core(*this, d, c);
}

double Rng::gamma(const GammaPrep& prep) {
  if (prep.boosted) {
    const double u = uniform();
    return gamma_core(*this, prep.d, prep.c) * std::pow(u, prep.inv_shape);
  }
  return gamma_core(*this, prep.d, prep.c);
}

double Rng::beta(double a, double b) {
  if (a <= 0.0 || b <= 0.0) throw std::invalid_argument("Rng::beta: a,b <= 0");
  const double x = gamma(a);
  const double y = gamma(b);
  return x / (x + y);
}

double Rng::beta(const GammaPrep& a, const GammaPrep& b) {
  const double x = gamma(a);
  const double y = gamma(b);
  return x / (x + y);
}

namespace {

/// Below this mean n·min(p, 1−p) binomial() inverts the CDF; at or above
/// it BTRS takes over (Hörmann's table of constants is fitted for it).
constexpr double kBinomialInversionMax = 10.0;

/// fc(k) = log k! − [(k + ½)·log(k + 1) − (k + 1) + ½·log 2π], the error of
/// Stirling's formula for k!. Computed directly below 10, by the
/// three-term asymptotic series above (error < 1e-10 there). Written without lgamma, which sets
/// the global signgam and so races when replicates run on several threads.
double stirling_tail(double k) noexcept {
  if (k < 10.0) {
    constexpr double kFactorial[10] = {1.0,   1.0,    2.0,    6.0,     24.0,
                                       120.0, 720.0, 5040.0, 40320.0, 362880.0};
    constexpr double kHalfLog2Pi = 0.91893853320467274178;
    return std::log(kFactorial[static_cast<int>(k)]) -
           (k + 0.5) * std::log(k + 1.0) + (k + 1.0) - kHalfLog2Pi;
  }
  const double inv = 1.0 / (k + 1.0);
  const double inv2 = inv * inv;
  return (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv;
}

/// Sequential-search inversion for p <= 0.5 and n·p < kBinomialInversionMax:
/// walks the pmf up from P(0) = qⁿ with P(k) = P(k−1)·((n+1)/k − 1)·p/q.
/// The walk stops at a bound ten standard deviations past the mean; a
/// uniform that rounding pushes past it is redrawn rather than let run on.
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = (nd + 1.0) * s;
  const double p0 = std::exp(nd * std::log1p(-p));
  const double bound = std::min(nd, nd * p + 10.0 * std::sqrt(nd * p * q + 1.0));
  for (;;) {
    double u = rng.uniform();
    double pk = p0;
    double k = 0.0;
    while (u > pk && k <= bound) {
      u -= pk;
      k += 1.0;
      pk *= a / k - s;
    }
    if (k <= bound) return static_cast<std::uint64_t>(k);
  }
}

/// BTRS for p <= 0.5 and n·p >= kBinomialInversionMax. The acceptance test
/// compares against log f(k)/f(m) (m the mode), written through Stirling
/// tails so that no two large logarithms cancel even at n = 1e9.
std::uint64_t binomial_btrs(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double r = p / q;
  const double m = std::floor((nd + 1.0) * p);
  const double mode_terms = stirling_tail(m) + stirling_tail(nd - m);
  for (;;) {
    const double u = rng.uniform() - 0.5;
    const double v = rng.uniform();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (!(k >= 0.0 && k <= nd)) continue;
    // Quick accept: inside this box the hat lies under the pmf, so k needs
    // no pmf evaluation.
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    const double log_v = std::log(v * alpha / (a / (us * us) + b));
    const double log_ratio =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - k + 1.0)) +
        (k + 0.5) * std::log(r * (nd - k + 1.0) / (k + 1.0)) + mode_terms -
        stirling_tail(k) - stirling_tail(nd - k);
    if (log_v <= log_ratio) return static_cast<std::uint64_t>(k);
  }
}

}  // namespace

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("Rng::binomial: p outside [0,1]");
  }
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  const bool reflect = p > 0.5;
  const double pp = reflect ? 1.0 - p : p;
  const std::uint64_t k = static_cast<double>(n) * pp < kBinomialInversionMax
                              ? binomial_inversion(*this, n, pp)
                              : binomial_btrs(*this, n, pp);
  return reflect ? n - k : k;
}

void Rng::multinomial(std::uint64_t n, std::span<const double> weights,
                      std::span<std::uint64_t> out) {
  if (weights.size() != out.size()) {
    throw std::invalid_argument("Rng::multinomial: size mismatch");
  }
  double total = 0.0;
  std::size_t last = weights.size();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] >= 0.0) || !std::isfinite(weights[i])) {
      throw std::invalid_argument(
          "Rng::multinomial: weights must be finite and >= 0");
    }
    total += weights[i];
    if (weights[i] > 0.0) last = i;
  }
  std::fill(out.begin(), out.end(), std::uint64_t{0});
  if (n == 0) return;
  if (last == weights.size()) {
    throw std::invalid_argument("Rng::multinomial: all weights are zero");
  }
  std::uint64_t remaining = n;
  for (std::size_t i = 0; i < last && remaining > 0; ++i) {
    if (weights[i] > 0.0) {
      out[i] = binomial(remaining, std::clamp(weights[i] / total, 0.0, 1.0));
      remaining -= out[i];
    }
    total -= weights[i];
  }
  out[last] = remaining;
}

std::size_t Rng::discrete(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument("Rng::discrete: weights must be finite and >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("Rng::discrete: all weights are zero");
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Numerical edge: land on the last bucket.
}

Rng Rng::split(std::uint64_t stream_id) const noexcept {
  // Key the child stream on the parent's full state plus the stream id.
  std::uint64_t mix = stream_id ^ 0xA5A5A5A55A5A5A5AULL;
  for (const std::uint64_t word : state_) mix ^= splitmix64(mix) + word;
  return Rng(mix);
}

}  // namespace hmdiv::stats
