#ifndef MRLQUANT_UTIL_MATH_H_
#define MRLQUANT_UTIL_MATH_H_

#include <cstdint>
#include <limits>

namespace mrl {

/// Ceiling of a/b for positive integers.
constexpr std::uint64_t CeilDiv(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Saturation limit of the binomial leaf counts: e^43.6 ~ 8.61e18, just
/// under 2^63 (this is the double std::exp(43.6), which is an integer).
/// A count above it is as good as infinite to the parameter solvers.
inline constexpr std::uint64_t kBinomialSaturationLimit =
    8614685180288970752ull;

/// Sentinel a saturated leaf count takes.
inline constexpr std::uint64_t kSaturatedBinomial =
    std::numeric_limits<std::uint64_t>::max();

/// Binomial coefficient C(n, r) when it is at most kBinomialSaturationLimit;
/// kSaturatedBinomial (uint64 max) for anything larger, and 0 for r > n.
/// The MRL99 parameter solvers use these for leaf counts
/// L_d = C(b+h-2, h-1), which exceed 2^64 for large (b, h); saturation
/// keeps the constraint checks correct (a saturated leaf count trivially
/// satisfies the lower bounds). Exact integer arithmetic, no shared state.
std::uint64_t SaturatingBinomial(std::uint64_t n, std::uint64_t r);

/// a + b for two SaturatingBinomial values, saturating the same way:
/// kSaturatedBinomial when either term is saturated or the sum exceeds
/// kBinomialSaturationLimit. With it, Pascal's rule
/// C(n, r) = C(n-1, r-1) + C(n-1, r) builds SaturatingBinomial row by row.
constexpr std::uint64_t SaturatingBinomialSum(std::uint64_t a,
                                              std::uint64_t b) {
  // Unsaturated terms are below 2^63, so the sum cannot wrap.
  if (a > kBinomialSaturationLimit || b > kBinomialSaturationLimit) {
    return kSaturatedBinomial;
  }
  return a + b > kBinomialSaturationLimit ? kSaturatedBinomial : a + b;
}

/// Kullback–Leibler divergence D(p || q) between Bernoulli(p) and
/// Bernoulli(q), in nats. Handles the p in {0,1} boundary cases; returns
/// +infinity when q is 0 or 1 while p is not.
double KlBernoulli(double p, double q);

/// Two-sided Hoeffding sample size: the smallest integer s such that
///   2 * exp(-2 * s * eps^2) <= delta,
/// i.e. a uniform sample of size s yields an eps-accurate quantile estimate
/// with probability >= 1 - delta (the folklore bound from Section 2.2).
std::uint64_t HoeffdingSampleSize(double eps, double delta);

/// Stein / Chernoff sample size for the extreme-value estimator (Section 7):
/// the smallest s such that
///   exp(-s * D(phi || phi - eps)) + exp(-s * D(phi || phi + eps)) <= delta
/// with the lower-tail term dropped when phi - eps <= 0 and the upper-tail
/// term dropped when phi + eps >= 1. Requires 0 < phi < 1, eps > 0,
/// 0 < delta < 1.
std::uint64_t SteinSampleSize(double phi, double eps, double delta);

/// Smallest power of two >= x (x >= 1).
std::uint64_t NextPow2(std::uint64_t x);

/// True if x is a power of two (x > 0).
constexpr bool IsPow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace mrl

#endif  // MRLQUANT_UTIL_MATH_H_
