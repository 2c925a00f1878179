// The AVX2 half of the SIMD kernel lane (util/simd.h). This TU — and only
// this TU — is compiled with -mavx2 (see src/util/CMakeLists.txt), so
// nothing here may be called without the runtime cpuid check the dispatch
// in util/simd.cc performs: every entry point below is reached exclusively
// through Avx2SortKernelsOrNull(), which returns nullptr unless
// __builtin_cpu_supports("avx2") said yes (and "pclmul", for the CRC kernel
// in util/crc_simd.cc that shares the table).
//
// When the toolchain cannot target AVX2 (non-x86, ancient compiler), the
// whole file collapses to the nullptr stub at the bottom and the dispatch
// resolves to the scalar table — the portable build stays portable.
//
// Every kernel is bit-identical to its scalar reference in util/simd.cc:
// the key transform is pure integer bit math (no FP ops, so no rounding or
// flush-to-zero hazards — denormals and the zeros pass through untouched),
// and the histogram kernels count the same multiset into the same [8][256]
// shape, only via four partial tables. tests/simd_kernel_test.cc sweeps
// the equivalence over adversarial inputs, tails, and alignments.

#include "util/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "util/sort.h"
#include "util/thread_annotations.h"

namespace mrl {
namespace simd {
namespace {

// OrderedKeyFromValue over 4 doubles per op. The scalar transform is
//   mask = (bits >> 63 ? ~0 : 0) | 0x8000...0;  key = bits ^ mask;
// which vectorizes as a signed 64-bit "is negative" compare (all-ones
// exactly where the sign bit is set) OR'd with the broadcast sign bit.
MRLQUANT_HOT void Avx2TransformKeys(const Value* in, std::uint64_t* out,
                                    std::size_t n) {
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i bits = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + i));
    const __m256i neg = _mm256_cmpgt_epi64(zero, bits);
    const __m256i key = _mm256_xor_si256(bits, _mm256_or_si256(neg, sign));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), key);
  }
  for (; i < n; ++i) out[i] = OrderedKeyFromValue(in[i]);
}

// Exact inverse: mask = (key >> 63 ? sign : ~0); value = key ^ mask. The
// select vectorizes as sign | ~isneg (all-ones branch keeps every bit, the
// negative branch keeps only the sign bit).
MRLQUANT_HOT void Avx2InverseKeys(const std::uint64_t* in, Value* out,
                                  std::size_t n) {
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i key = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + i));
    const __m256i top = _mm256_cmpgt_epi64(zero, key);
    const __m256i mask =
        _mm256_or_si256(sign, _mm256_xor_si256(top, ones));
    const __m256i bits = _mm256_xor_si256(key, mask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bits);
  }
  for (; i < n; ++i) out[i] = ValueFromOrderedKey(in[i]);
}

/// Below this n the 4x partial-table clear + merge (64 KiB + 8K adds)
/// costs more than the store-forwarding stalls it avoids; a single table
/// through the scalar accumulator wins. Tail sizes in the bench grid (257,
/// 4097) sit on both sides of this line on purpose.
constexpr std::size_t kPartialTableCutoff = 4096;

/// Bump all eight byte counters of `k` in partial table `t`.
inline void CountKey(std::size_t (*t)[256], std::uint64_t k) {
  ++t[0][k & 0xFF];
  ++t[1][(k >> 8) & 0xFF];
  ++t[2][(k >> 16) & 0xFF];
  ++t[3][(k >> 24) & 0xFF];
  ++t[4][(k >> 32) & 0xFF];
  ++t[5][(k >> 40) & 0xFF];
  ++t[6][(k >> 48) & 0xFF];
  ++t[7][(k >> 56) & 0xFF];
}

/// Four partial count tables, one per AVX2 lane. Consecutive keys land in
/// different tables, so runs of equal (or byte-sharing) values increment
/// four independent counters instead of serializing on one address through
/// the store-to-load forwarding path — the classic radix-histogram conflict
/// stall on duplicate-heavy and presorted data. Merged into `hist` before
/// the prefix-sum.
struct PartialTables {
  std::size_t t[4][8][256];
};

void MergePartials(const PartialTables& part, std::size_t (*hist)[256]) {
  for (int p = 0; p < 8; ++p) {
    for (int j = 0; j < 256; ++j) {
      hist[p][j] = part.t[0][p][j] + part.t[1][p][j] + part.t[2][p][j] +
                   part.t[3][p][j];
    }
  }
}

MRLQUANT_HOT void Avx2Histogram(const std::uint64_t* keys, std::size_t n,
                                std::size_t (*hist)[256]) {
  if (n < kPartialTableCutoff) {
    ScalarSortKernels().histogram(keys, n, hist);
    return;
  }
  PartialTables part;
  std::memset(&part, 0, sizeof(part));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    CountKey(part.t[0], keys[i]);
    CountKey(part.t[1], keys[i + 1]);
    CountKey(part.t[2], keys[i + 2]);
    CountKey(part.t[3], keys[i + 3]);
  }
  for (; i < n; ++i) CountKey(part.t[0], keys[i]);
  MergePartials(part, hist);
}

// The fused first pass of the radix engine: one sweep transforms 4 values
// per op and feeds the fresh keys straight into the per-lane partial
// tables while they are still in registers — the scalar path reads the
// data once for the transform and the key array again for the histogram.
MRLQUANT_HOT void Avx2TransformAndHistogram(const Value* in,
                                            std::uint64_t* out, std::size_t n,
                                            std::size_t (*hist)[256]) {
  if (n < kPartialTableCutoff) {
    Avx2TransformKeys(in, out, n);
    ScalarSortKernels().histogram(out, n, hist);
    return;
  }
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i zero = _mm256_setzero_si256();
  PartialTables part;
  std::memset(&part, 0, sizeof(part));
  alignas(32) std::uint64_t lane[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i bits = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + i));
    const __m256i neg = _mm256_cmpgt_epi64(zero, bits);
    const __m256i key = _mm256_xor_si256(bits, _mm256_or_si256(neg, sign));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), key);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), key);
    CountKey(part.t[0], lane[0]);
    CountKey(part.t[1], lane[1]);
    CountKey(part.t[2], lane[2]);
    CountKey(part.t[3], lane[3]);
  }
  for (; i < n; ++i) {
    const std::uint64_t k = OrderedKeyFromValue(in[i]);
    out[i] = k;
    CountKey(part.t[0], k);
  }
  MergePartials(part, hist);
}

constexpr SortKernelOps kAvx2Ops = {
    Avx2TransformKeys,
    Avx2InverseKeys,
    Avx2TransformAndHistogram,
    Avx2Histogram,
    Crc32UpdateClmul,
};

/// AVX2 for the sort kernels, PCLMULQDQ for the CRC fold that shares their
/// table.
bool HostHasAvx2AndPclmul() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

}  // namespace

const SortKernelOps* Avx2SortKernelsOrNull() {
  return HostHasAvx2AndPclmul() ? &kAvx2Ops : nullptr;
}

}  // namespace simd
}  // namespace mrl

#else  // !defined(__AVX2__)

namespace mrl {
namespace simd {

// This build could not target AVX2 (non-x86 architecture or a compiler
// without -mavx2); the dispatch falls back to the scalar table.
const SortKernelOps* Avx2SortKernelsOrNull() { return nullptr; }

}  // namespace simd
}  // namespace mrl

#endif  // defined(__AVX2__)
