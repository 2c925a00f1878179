#ifndef MRLQUANT_UTIL_SIMD_H_
#define MRLQUANT_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/types.h"

namespace mrl {
namespace simd {

/// The SIMD kernel lane. The radix sort engine (util/sort.h) and the
/// loser-tree merge (core/weighted_merge.h) spend their per-value budget in
/// three tight loops over contiguous doubles: the order-preserving key
/// transform, the fused byte-histogram pass, and the leaf-head refill. The
/// wire protocol spends its budget in the CRC-32 over every frame payload.
/// This header is the dispatch seam between their portable scalar
/// implementations (util/simd.cc — the differential references: the loops
/// the sort engine first shipped and the byte-at-a-time CRC table loop) and
/// the x86 implementations (util/sort_simd.cc, compiled with -mavx2, and
/// util/crc_simd.cc, compiled with -mpclmul -msse4.1, each in its own TU
/// and only ever *called* after a runtime cpuid check).
///
/// Dispatch policy: resolved exactly once, at first use, into a
/// function-pointer table.
///   * `MRLQUANT_FORCE_SCALAR` set to anything but "" / "0" pins the
///     scalar kernels regardless of what the CPU supports (path name
///     "forced-scalar") — the portable-build escape hatch CI exercises on
///     every PR.
///   * Otherwise `__builtin_cpu_supports("avx2")` together with
///     `__builtin_cpu_supports("pclmul")` selects the AVX2 table, whose CRC
///     kernel is the PCLMULQDQ fold, when the host has both and this build
///     compiled it ("avx2"). Every AVX2 part also has PCLMULQDQ, so the
///     second check only keeps the fold from ever running without it.
///   * Anything else — non-x86, compiler without -mavx2, pre-AVX2 silicon
///     — runs scalar ("scalar").
/// Both tables produce bit-identical outputs for every input (asserted by
/// tests/simd_kernel_test.cc and the golden state hashes in
/// tests/state_golden_test.cc); dispatch can therefore never change an
/// answer, only the wall clock.

/// Which kernel table ActiveSortKernels() resolved to.
enum class DispatchPath {
  kScalar,        ///< portable kernels; host/build has no AVX2
  kForcedScalar,  ///< portable kernels pinned by MRLQUANT_FORCE_SCALAR
  kAvx2,          ///< AVX2 kernels, selected by cpuid
};

/// Stable lowercase name ("scalar" / "forced-scalar" / "avx2") — recorded
/// in every bench JSON row and printed by the daemon at startup.
const char* DispatchPathName(DispatchPath path);

/// The path the process resolved (env override + cpuid, decided once).
DispatchPath ActivePath();

/// DispatchPathName(ActivePath()).
const char* ActivePathName();

/// Comma-separated feature list the runtime detected on this host
/// ("sse4.2,avx,avx2" / "portable" off x86) — bench artifact metadata, so
/// tools/bench_diff can refuse to silently compare numbers from different
/// silicon.
std::string CpuFeatureString();

/// The span kernels the sort engine and the wire CRC dispatch. All pointers
/// are always non-null; tail elements past the widest vector multiple are
/// handled inside each kernel, so callers never mind n % 4 or alignment
/// (kernels use unaligned loads — spans come from Buffer storage and
/// arbitrary user batches).
struct SortKernelOps {
  /// out[i] = OrderedKeyFromValue(in[i]) for i in [0, n).
  void (*transform_keys)(const Value* in, std::uint64_t* out, std::size_t n);

  /// out[i] = ValueFromOrderedKey(in[i]) for i in [0, n) — the exact
  /// inverse, used for the post-sort write-back.
  void (*inverse_keys)(const std::uint64_t* in, Value* out, std::size_t n);

  /// Fused first pass of the radix engine: transform values into keys AND
  /// accumulate all eight byte histograms in the same sweep (one read of
  /// the data). `hist` is an [8][256] table the kernel fully overwrites.
  /// The AVX2 kernel accumulates into four partial count tables (one per
  /// lane) merged before return, dodging the store-forwarding stalls that
  /// serialize a single table on duplicate-heavy data.
  void (*transform_and_histogram)(const Value* in, std::uint64_t* out,
                                  std::size_t n, std::size_t (*hist)[256]);

  /// All eight byte histograms of already-transformed keys (the SortPairs
  /// path, whose key extraction is strided and stays scalar). Same partial
  /// table treatment as transform_and_histogram.
  void (*histogram)(const std::uint64_t* keys, std::size_t n,
                    std::size_t (*hist)[256]);

  /// Advances a reflected CRC-32 register (IEEE 802.3, polynomial
  /// 0xEDB88320) over data[0, n) and returns it; the caller applies the
  /// initial and final inversion (server::Crc32). The scalar kernel is the
  /// byte-at-a-time table loop. The AVX2 table's kernel (util/crc_simd.cc)
  /// folds 64-byte blocks with PCLMULQDQ and hands inputs under 64 bytes
  /// and the last n % 16 bytes to the table loop; it returns the same
  /// register for every input. `data` may be null when n == 0.
  std::uint32_t (*crc32_update)(std::uint32_t crc, const std::uint8_t* data,
                                std::size_t n);
};

/// The table ActivePath() selected. First call resolves the dispatch;
/// subsequent calls are a single atomic load (hot paths may call this per
/// sort, not per element).
const SortKernelOps& ActiveSortKernels();

/// The portable reference table — always available, what "scalar" and
/// "forced-scalar" run.
const SortKernelOps& ScalarSortKernels();

/// The AVX2 table, or nullptr when the host lacks AVX2 or PCLMULQDQ or this
/// build could not compile it. Differential tests sweep it against the
/// scalar table directly.
const SortKernelOps* Avx2SortKernelsOrNull();

/// The AVX2 table's CRC kernel (util/crc_simd.cc). Runs PCLMULQDQ and
/// SSE4.1 instructions: reach it only through Avx2SortKernelsOrNull(),
/// which has checked cpuid. Builds that cannot target PCLMULQDQ compile it
/// to the table loop.
std::uint32_t Crc32UpdateClmul(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t n);

/// Test hook: swap the active table (and the reported path) to `path`,
/// returning the previous path so tests can restore it. CHECK-fails when
/// asked for kAvx2 on a host without it. Not for production call sites —
/// the env override exists for that.
DispatchPath ForceDispatchForTesting(DispatchPath path);

/// Software prefetch hints for the merge engine's pointer-chasing loops.
/// No-ops where the builtin is unavailable; never required for
/// correctness. `p` may point anywhere, including out of bounds — prefetch
/// instructions do not fault.
inline void PrefetchRead(const void* p) {
#if (defined(__GNUC__) || defined(__clang__)) && !defined(MRLQUANT_NO_PREFETCH)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

inline void PrefetchWrite(const void* p) {
#if (defined(__GNUC__) || defined(__clang__)) && !defined(MRLQUANT_NO_PREFETCH)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace simd
}  // namespace mrl

#endif  // MRLQUANT_UTIL_SIMD_H_
