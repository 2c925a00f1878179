// The PCLMULQDQ CRC-32 kernel of the SIMD lane (util/simd.h,
// SortKernelOps::crc32_update). This TU alone is compiled with
// -mpclmul -msse4.1 (see src/util/CMakeLists.txt). Its kernel sits only in
// the AVX2 table, which the dispatch hands out only after cpuid reported
// both avx2 and pclmul, so nothing here runs on a host without them.
//
// The method is Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected domain of
// the IEEE polynomial 0xEDB88320 — the constants below are the paper's, the
// same ones zlib's and Chromium's crc32_simd use:
//   * Four 128-bit accumulators take one 16-byte lane of each 64-byte block.
//     Carry-less multiplying an accumulator's two 64-bit halves by
//     x^(4*128+32) and x^(4*128-32) mod P moves its remainder 512 bits down
//     the message, where it is xored into the next block's lane.
//   * The four lanes fold into one with the 128-bit distance constants, and
//     any further 16-byte blocks fold in the same way.
//   * The 128-bit remainder is reduced to 64 bits, then to the 32-bit CRC by
//     Barrett reduction.
// Inputs under 64 bytes and the last n % 16 bytes go through the table loop
// (the scalar kernel), which carries on from the folded register, so the
// result equals the table loop's on every input. tests/protocol_test.cc
// and fuzz/fuzz_protocol_decode.cc check that against the table loop.

#include "util/simd.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

#include "util/thread_annotations.h"

namespace mrl {
namespace simd {
namespace {

// Folding distances as (x^d mod P) bit-reflected and shifted left by one.
constexpr long long kK1 = 0x154442bd4;  // d = 4*128+32
constexpr long long kK2 = 0x1c6e41596;  // d = 4*128-32
constexpr long long kK3 = 0x1751997d0;  // d = 128+32
constexpr long long kK4 = 0x0ccaa009e;  // d = 128-32
constexpr long long kK5 = 0x163cd6124;  // d = 64
// P(x) with its x^32 term, and the Barrett constant floor(x^64 / P(x)),
// both bit-reflected.
constexpr long long kPoly = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

/// Smallest input the fold takes: one 64-byte block fills the four lanes.
constexpr std::size_t kFoldMin = 64;

inline __m128i Load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves `acc` the distance `k` = {low: x^(d+32), high: x^(d-32)} down the
/// message and adds (xors) the data block waiting there.
inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// The CRC register after data[0, n), for n >= 64 and n % 16 == 0.
MRLQUANT_HOT std::uint32_t FoldBlocks(std::uint32_t crc,
                                      const std::uint8_t* data,
                                      std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  __m128i x0 = _mm_xor_si128(Load(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(data + 16);
  __m128i x2 = Load(data + 32);
  __m128i x3 = Load(data + 48);
  data += 64;
  n -= 64;
  for (; n >= 64; data += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load(data));
    x1 = Fold(x1, k1k2, Load(data + 16));
    x2 = Fold(x2, k1k2, Load(data + 32));
    x3 = Fold(x3, k1k2, Load(data + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; data += 16, n -= 16) x0 = Fold(x0, k3k4, Load(data));

  // 128 -> 64 bits: the low half times x^(128-32), added to the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits (+32 of headroom): the low word times x^64.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction: q = low32(x) * mu, r = x ^ low32(q) * P.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

}  // namespace

std::uint32_t Crc32UpdateClmul(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t n) {
  const auto table_loop = ScalarSortKernels().crc32_update;
  if (n < kFoldMin) return table_loop(crc, data, n);
  const std::size_t folded = n & ~std::size_t{15};
  return table_loop(FoldBlocks(crc, data, folded), data + folded,
                    n - folded);
}

}  // namespace simd
}  // namespace mrl

#else  // !(defined(__PCLMUL__) && defined(__SSE4_1__))

namespace mrl {
namespace simd {

// This build could not target PCLMULQDQ; the AVX2 table (if any) carries
// the table loop instead.
std::uint32_t Crc32UpdateClmul(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t n) {
  return ScalarSortKernels().crc32_update(crc, data, n);
}

}  // namespace simd
}  // namespace mrl

#endif  // defined(__PCLMUL__) && defined(__SSE4_1__)
