// NOTE ON FLOATING-POINT CONTRACTS: every target is compiled with
// -ffp-contract=off (see the top-level CMakeLists.txt). Every Φ evaluation in
// the project funnels through this TU, so with contraction disabled each
// arithmetic op is individually correctly rounded and the scalar
// normal_cdf(double), the batched normal_cdf(span), and every ISA clone of
// the batch kernel produce bit-identical results — the property the sweep
// engine's scalar-vs-batched equivalence tests rely on.
#include "stats/special.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace hmdiv::stats {

namespace {

constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

/// Continued fraction for the incomplete beta function (Lentz's algorithm).
double beta_continued_fraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double log_factorial(unsigned long long n) {
  // Table of lgamma(n + 1) values (not cumulative log sums), so the cached
  // range returns exactly what the direct computation would. Magic-static
  // initialisation makes the one-time build thread-safe.
  static const std::vector<double> table = [] {
    std::vector<double> t(4096);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = std::lgamma(static_cast<double>(i) + 1.0);
    }
    return t;
  }();
  if (n < table.size()) return table[n];
  return std::lgamma(static_cast<double>(n) + 1.0);
}

double log_binomial_coefficient(unsigned long long n, unsigned long long k) {
  if (k > n) {
    throw std::invalid_argument("log_binomial_coefficient: k > n");
  }
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double regularized_incomplete_beta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) {
    throw std::invalid_argument("regularized_incomplete_beta: a,b must be > 0");
  }
  if (x < 0.0 || x > 1.0) {
    throw std::invalid_argument("regularized_incomplete_beta: x outside [0,1]");
  }
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double log_front = std::lgamma(a + b) - std::lgamma(a) -
                           std::lgamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  const double front = std::exp(log_front);
  // Use the symmetry transformation for faster convergence.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                        a * std::log(x) + b * std::log1p(-x)) *
                   beta_continued_fraction(b, a, 1.0 - x) / b;
}

double regularized_lower_incomplete_gamma(double a, double x) {
  if (a <= 0.0) {
    throw std::invalid_argument("regularized_lower_incomplete_gamma: a <= 0");
  }
  if (x < 0.0) {
    throw std::invalid_argument("regularized_lower_incomplete_gamma: x < 0");
  }
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) {
    // Series representation.
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int n = 0; n < 500; ++n) {
      ap += 1.0;
      term *= x / ap;
      sum += term;
      if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
    }
    return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
  }
  // Continued fraction for the upper tail Q(a,x); P = 1 - Q.
  double b0 = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b0;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b0 += 2.0;
    d = an * d + b0;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b0 + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  const double q = std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
  return 1.0 - q;
}

namespace {

// --- Vectorisable Φ kernel -------------------------------------------------
//
// normal_cdf(z) = 0.5 * erfc(x) with x = -z / sqrt(2), using W. J. Cody's
// rational Chebyshev approximations (Math. Comp. 23, 1969) in the classic
// three regions:
//   A: |x| <  0.46875          erf via an odd rational in x²
//   B: 0.46875 <= |x| < 4      erfc via exp(-x²) · rational(|x|)
//   C: |x| >= 4                erfc via exp(-x²)/|x| · asymptotic in 1/x²
// All three region evaluators are straight-line arithmetic (the only
// transcendental, exp, is inlined below), so a loop that applies one region
// to a contiguous run of inputs auto-vectorises.

constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvLn2 = 1.4426950408889634074;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kRoundMagic = 6755399441055744.0;  // 1.5 * 2^52
constexpr double kInvSqrtPi = 5.6418958354775628695e-01;

/// exp(y) for y in [-746, 0], branch-free and libm-free so the region
/// loops below auto-vectorise. Cody–Waite reduction y = k·ln2 + r with
/// round-to-nearest k obtained via the magic-constant trick, degree-13
/// Taylor for e^r, and 2^k applied as two half-scales so the deep tail
/// (k below -1022) underflows gradually instead of producing a zero scale.
/// PRECONDITION: y >= -746 (the callers' region cuts guarantee y >= -703);
/// more negative inputs would corrupt the scale computation, which is why
/// phi() routes |x| >= 26.5 — where erfc underflows anyway — to the
/// constant tail region instead of here.
inline double exp_neg(double y) {
  const double t = y * kInvLn2 + kRoundMagic;
  const double kd = t - kRoundMagic;
  // k as an integer: the low 32 bits of the magic-biased mantissa.
  const auto ki = static_cast<std::int32_t>(
      std::bit_cast<std::uint64_t>(t) & 0xFFFFFFFFu);
  const double r = (y - kd * kLn2Hi) - kd * kLn2Lo;
  double p = 1.0 / 6227020800.0;  // 1/13!
  p = p * r + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  const std::int32_t k1 = ki >> 1;
  const std::int32_t k2 = ki - k1;
  const double s1 =
      std::bit_cast<double>(static_cast<std::uint64_t>(k1 + 1023) << 52);
  const double s2 =
      std::bit_cast<double>(static_cast<std::uint64_t>(k2 + 1023) << 52);
  return p * s1 * s2;
}

/// Region A: erf(x) for |x| < 0.46875.
inline double erf_small(double x) {
  constexpr double pa0 = 3.16112374387056560e+00;
  constexpr double pa1 = 1.13864154151050156e+02;
  constexpr double pa2 = 3.77485237685302021e+02;
  constexpr double pa3 = 3.20937758913846947e+03;
  constexpr double pa4 = 1.85777706184603153e-01;
  constexpr double qa0 = 2.36012909523441209e+01;
  constexpr double qa1 = 2.44024637934444173e+02;
  constexpr double qa2 = 1.28261652607737228e+03;
  constexpr double qa3 = 2.84423683343917062e+03;
  const double z = x * x;
  const double num = ((((pa4 * z + pa0) * z + pa1) * z + pa2) * z + pa3);
  const double den = ((((z + qa0) * z + qa1) * z + qa2) * z + qa3);
  return x * num / den;
}

/// Region B: erfc(ax) for 0.46875 <= ax < 4.
inline double erfc_mid(double ax) {
  constexpr double pb0 = 5.64188496988670089e-01;
  constexpr double pb1 = 8.88314979438837594e+00;
  constexpr double pb2 = 6.61191906371416295e+01;
  constexpr double pb3 = 2.98635138197400131e+02;
  constexpr double pb4 = 8.81952221241769090e+02;
  constexpr double pb5 = 1.71204761263407058e+03;
  constexpr double pb6 = 2.05107837782607147e+03;
  constexpr double pb7 = 1.23033935479799725e+03;
  constexpr double pb8 = 2.15311535474403846e-08;
  constexpr double qb0 = 1.57449261107098347e+01;
  constexpr double qb1 = 1.17693950891312499e+02;
  constexpr double qb2 = 5.37181101862009858e+02;
  constexpr double qb3 = 1.62138957456669019e+03;
  constexpr double qb4 = 3.29079923573345963e+03;
  constexpr double qb5 = 4.36261909014324716e+03;
  constexpr double qb6 = 3.43936767414372164e+03;
  constexpr double qb7 = 1.23033935480374942e+03;
  const double num =
      ((((((((pb8 * ax + pb0) * ax + pb1) * ax + pb2) * ax + pb3) * ax + pb4) *
             ax + pb5) * ax + pb6) * ax + pb7);
  const double den =
      ((((((((ax + qb0) * ax + qb1) * ax + qb2) * ax + qb3) * ax + qb4) *
             ax + qb5) * ax + qb6) * ax + qb7);
  return exp_neg(-(ax * ax)) * num / den;
}

/// Region C: erfc(ax) for ax >= 4.
inline double erfc_far(double ax) {
  constexpr double pc0 = 3.05326634961232344e-01;
  constexpr double pc1 = 3.60344899949804439e-01;
  constexpr double pc2 = 1.25781726111229246e-01;
  constexpr double pc3 = 1.60837851487422766e-02;
  constexpr double pc4 = 6.58749161529837803e-04;
  constexpr double pc5 = 1.63153871373020978e-02;
  constexpr double qc0 = 2.56852019228982242e+00;
  constexpr double qc1 = 1.87295284992346047e+00;
  constexpr double qc2 = 5.27905102951428412e-01;
  constexpr double qc3 = 6.05183413124413191e-02;
  constexpr double qc4 = 2.33520497626869185e-03;
  const double z2 = 1.0 / (ax * ax);
  const double num =
      (((((pc5 * z2 + pc0) * z2 + pc1) * z2 + pc2) * z2 + pc3) * z2 + pc4);
  const double den =
      (((((z2 + qc0) * z2 + qc1) * z2 + qc2) * z2 + qc3) * z2 + qc4);
  const double r = (kInvSqrtPi - z2 * num / den) / ax;
  return exp_neg(-(ax * ax)) * r;
}

/// |x| at and beyond which Φ is flushed to an exact 0 or 1: erfc(26.5) is
/// below 1e-305, more than 290 decimal orders under the smallest value any
/// operating-point arithmetic can resolve, and cutting here keeps exp_neg's
/// argument comfortably inside its precondition.
constexpr double kErfcFlushX = 26.5;

/// Scalar Φ — the documented reference path every other overload matches.
inline double phi(double z) {
  if (std::isnan(z)) return z;
  const double x = -z * kInvSqrt2;
  const double ax = std::fabs(x);
  if (ax < 0.46875) return 0.5 * (1.0 - erf_small(x));
  if (ax >= kErfcFlushX) return x < 0.0 ? 1.0 : 0.0;
  const double r = ax < 4.0 ? erfc_mid(ax) : erfc_far(ax);
  return x < 0.0 ? 1.0 - 0.5 * r : 0.5 * r;
}

/// Approximation regions of Φ in the order they appear over ascending x
/// (x = -z/sqrt(2)); "upper"/"lower" refer to the sign branch in phi().
/// kZeroTail/kOneTail are the |x| >= kErfcFlushX flush regions.
enum class PhiRegion {
  kZeroTail,
  kFarUpper,
  kMidUpper,
  kCenter,
  kMidLower,
  kFarLower,
  kOneTail,
};

// target_clones is implemented with an ifunc resolver, which the dynamic
// loader runs before the TSan runtime has initialised — instrumented
// resolvers segfault at startup. Sanitized builds take the plain
// (still auto-vectorised) default codegen; clone selection changes only
// instruction scheduling, never per-lane arithmetic, so results are
// identical either way.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define HMDIV_PHI_TARGET_CLONES
#else
#define HMDIV_PHI_TARGET_CLONES \
  __attribute__((target_clones("avx2", "default")))
#endif

/// Applies one region's evaluator to a contiguous run of z values. Each
/// loop body is branch-free straight-line arithmetic, so GCC vectorises it;
/// the avx2 clone is selected at load time on machines that have it, and
/// -ffp-contract=off keeps every clone's per-lane arithmetic identical to
/// the scalar phi() above.
HMDIV_PHI_TARGET_CLONES void apply_phi_region(
    PhiRegion region, const double* z, double* out, std::size_t n) {
  switch (region) {
    case PhiRegion::kZeroTail:
      for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;
      break;
    case PhiRegion::kFarUpper:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = 0.5 * erfc_far(-z[i] * kInvSqrt2);
      }
      break;
    case PhiRegion::kMidUpper:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = 0.5 * erfc_mid(-z[i] * kInvSqrt2);
      }
      break;
    case PhiRegion::kCenter:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = 0.5 * (1.0 - erf_small(-z[i] * kInvSqrt2));
      }
      break;
    case PhiRegion::kMidLower:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = 1.0 - 0.5 * erfc_mid(z[i] * kInvSqrt2);
      }
      break;
    case PhiRegion::kFarLower:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = 1.0 - 0.5 * erfc_far(z[i] * kInvSqrt2);
      }
      break;
    case PhiRegion::kOneTail:
      for (std::size_t i = 0; i < n; ++i) out[i] = 1.0;
      break;
  }
}

/// Segmented batch Φ for monotone input. Region boundaries are found by
/// binary search on the *computed* predicate x = -z/sqrt(2) — the same
/// quantity and the same comparisons phi() branches on — so every element
/// lands in exactly the region the scalar path would have taken.
/// `ascending` selects the region order (ascending z walks x downward).
void phi_batch_monotone(const double* z, double* out, std::size_t n,
                        bool ascending) {
  const double* const e = z + n;
  auto boundary = [&](const double* lo, auto pred) {
    return std::partition_point(lo, e, pred);
  };
  const double* cut[6];
  if (ascending) {
    cut[0] = boundary(
        z, [](double v) { return -v * kInvSqrt2 >= kErfcFlushX; });
    cut[1] = boundary(cut[0], [](double v) { return -v * kInvSqrt2 >= 4.0; });
    cut[2] = boundary(cut[1],
                      [](double v) { return -v * kInvSqrt2 >= 0.46875; });
    cut[3] = boundary(cut[2],
                      [](double v) { return -v * kInvSqrt2 > -0.46875; });
    cut[4] = boundary(cut[3], [](double v) { return -v * kInvSqrt2 > -4.0; });
    cut[5] = boundary(
        cut[4], [](double v) { return -v * kInvSqrt2 > -kErfcFlushX; });
  } else {
    cut[0] = boundary(
        z, [](double v) { return -v * kInvSqrt2 <= -kErfcFlushX; });
    cut[1] = boundary(cut[0], [](double v) { return -v * kInvSqrt2 <= -4.0; });
    cut[2] = boundary(cut[1],
                      [](double v) { return -v * kInvSqrt2 <= -0.46875; });
    cut[3] = boundary(cut[2],
                      [](double v) { return -v * kInvSqrt2 < 0.46875; });
    cut[4] = boundary(cut[3], [](double v) { return -v * kInvSqrt2 < 4.0; });
    cut[5] = boundary(
        cut[4], [](double v) { return -v * kInvSqrt2 < kErfcFlushX; });
  }
  static constexpr PhiRegion kAscendingOrder[7] = {
      PhiRegion::kZeroTail, PhiRegion::kFarUpper, PhiRegion::kMidUpper,
      PhiRegion::kCenter,   PhiRegion::kMidLower, PhiRegion::kFarLower,
      PhiRegion::kOneTail};
  static constexpr PhiRegion kDescendingOrder[7] = {
      PhiRegion::kOneTail, PhiRegion::kFarLower, PhiRegion::kMidLower,
      PhiRegion::kCenter,  PhiRegion::kMidUpper, PhiRegion::kFarUpper,
      PhiRegion::kZeroTail};
  const PhiRegion* order = ascending ? kAscendingOrder : kDescendingOrder;
  const double* begin = z;
  for (int s = 0; s < 7; ++s) {
    const double* end = s < 6 ? cut[s] : e;
    if (end > begin) {
      apply_phi_region(order[s], begin,
                       out + static_cast<std::size_t>(begin - z),
                       static_cast<std::size_t>(end - begin));
    }
    begin = end;
  }
}

}  // namespace

double normal_cdf(double z) { return phi(z); }

void normal_cdf(std::span<const double> z, std::span<double> out) {
  if (out.size() != z.size()) {
    throw std::invalid_argument("normal_cdf: out.size() != z.size()");
  }
  const std::size_t n = z.size();
  if (n == 0) return;
  const double* b = z.data();
  // Monotone input (the sweep layouts) takes the segmented vector path;
  // anything else gets the scalar loop — same values either way.
  if (std::is_sorted(b, b + n)) {
    phi_batch_monotone(b, out.data(), n, /*ascending=*/true);
  } else if (std::is_sorted(b, b + n, std::greater<double>())) {
    phi_batch_monotone(b, out.data(), n, /*ascending=*/false);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = phi(z[i]);
  }
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must lie in (0,1)");
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step brings the error below 1e-12.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

}  // namespace hmdiv::stats
