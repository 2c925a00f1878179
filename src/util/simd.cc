#include "util/simd.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/sort.h"
#include "util/thread_annotations.h"

namespace mrl {
namespace simd {
namespace {

// ------------------------------------------------------------------ scalar
// The portable kernels — bit-for-bit the loops PR4 shipped inside
// util/sort.cc (and the CRC loop the wire protocol shipped with), now
// hoisted behind the dispatch table so they double as the differential
// references for the AVX2 lane (the SortValuesNaive pattern:
// the old code stays in the library and the new code must match it).

MRLQUANT_HOT void ScalarTransformKeys(const Value* in, std::uint64_t* out,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = OrderedKeyFromValue(in[i]);
}

MRLQUANT_HOT void ScalarInverseKeys(const std::uint64_t* in, Value* out,
                                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ValueFromOrderedKey(in[i]);
}

/// All eight byte histograms of keys[0..n) in one fused pass (one read of
/// the data instead of eight).
MRLQUANT_HOT void ScalarHistogram(const std::uint64_t* keys, std::size_t n,
                                  std::size_t (*hist)[256]) {
  std::memset(hist, 0, 8 * 256 * sizeof(hist[0][0]));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    ++hist[0][k & 0xFF];
    ++hist[1][(k >> 8) & 0xFF];
    ++hist[2][(k >> 16) & 0xFF];
    ++hist[3][(k >> 24) & 0xFF];
    ++hist[4][(k >> 32) & 0xFF];
    ++hist[5][(k >> 40) & 0xFF];
    ++hist[6][(k >> 48) & 0xFF];
    ++hist[7][(k >> 56) & 0xFF];
  }
}

MRLQUANT_HOT void ScalarTransformAndHistogram(const Value* in,
                                              std::uint64_t* out,
                                              std::size_t n,
                                              std::size_t (*hist)[256]) {
  ScalarTransformKeys(in, out, n);
  ScalarHistogram(out, n, hist);
}

/// The reflected CRC-32 (IEEE 802.3) lookup table, one entry per byte.
constexpr std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = MakeCrcTable();

/// Table-driven CRC-32, one byte at a time: the loop the wire protocol
/// shipped with, kept as the reference the PCLMULQDQ fold must match.
MRLQUANT_HOT std::uint32_t ScalarCrc32Update(std::uint32_t crc,
                                             const std::uint8_t* data,
                                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kCrcTable[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

constexpr SortKernelOps kScalarOps = {
    ScalarTransformKeys,
    ScalarInverseKeys,
    ScalarTransformAndHistogram,
    ScalarHistogram,
    ScalarCrc32Update,
};

// ---------------------------------------------------------------- dispatch

bool ForceScalarFromEnv() {
  const char* env = std::getenv("MRLQUANT_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

struct Resolved {
  DispatchPath path;
  const SortKernelOps* ops;
};

Resolved ResolveOnce() {
  if (ForceScalarFromEnv()) {
    return {DispatchPath::kForcedScalar, &kScalarOps};
  }
  const SortKernelOps* avx2 = Avx2SortKernelsOrNull();
  if (avx2 != nullptr) return {DispatchPath::kAvx2, avx2};
  return {DispatchPath::kScalar, &kScalarOps};
}

/// Dispatch state. Resolved lazily on first use (no static-init-order
/// dependence; getenv + cpuid are both async-signal-trivial) and then
/// immutable except through ForceDispatchForTesting. Two atomics instead
/// of one struct keeps hot-path reads a single relaxed pointer load; the
/// pair is only ever (path, matching table), so a torn *pair* read during
/// a test's force-swap can at worst mislabel a path name, never run a
/// kernel the host lacks.
std::atomic<const SortKernelOps*> g_active_ops{nullptr};
std::atomic<DispatchPath> g_active_path{DispatchPath::kScalar};

const SortKernelOps* ResolveAndPublish() {
  const Resolved r = ResolveOnce();
  g_active_path.store(r.path, std::memory_order_relaxed);
  g_active_ops.store(r.ops, std::memory_order_release);
  return r.ops;
}

}  // namespace

const char* DispatchPathName(DispatchPath path) {
  switch (path) {
    case DispatchPath::kScalar:
      return "scalar";
    case DispatchPath::kForcedScalar:
      return "forced-scalar";
    case DispatchPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

DispatchPath ActivePath() {
  if (g_active_ops.load(std::memory_order_acquire) == nullptr) {
    ResolveAndPublish();
  }
  return g_active_path.load(std::memory_order_relaxed);
}

const char* ActivePathName() { return DispatchPathName(ActivePath()); }

std::string CpuFeatureString() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  std::string features;
  const auto append = [&features](const char* name, bool present) {
    if (!present) return;
    if (!features.empty()) features += ',';
    features += name;
  };
  append("sse4.2", __builtin_cpu_supports("sse4.2") != 0);
  append("avx", __builtin_cpu_supports("avx") != 0);
  append("avx2", __builtin_cpu_supports("avx2") != 0);
  append("avx512f", __builtin_cpu_supports("avx512f") != 0);
  return features.empty() ? "pre-sse4.2" : features;
#else
  return "portable";
#endif
}

const SortKernelOps& ActiveSortKernels() {
  const SortKernelOps* ops = g_active_ops.load(std::memory_order_acquire);
  if (ops == nullptr) ops = ResolveAndPublish();
  return *ops;
}

const SortKernelOps& ScalarSortKernels() { return kScalarOps; }

DispatchPath ForceDispatchForTesting(DispatchPath path) {
  const DispatchPath previous = ActivePath();
  const SortKernelOps* ops = &kScalarOps;
  if (path == DispatchPath::kAvx2) {
    ops = Avx2SortKernelsOrNull();
    MRL_CHECK(ops != nullptr)
        << "ForceDispatchForTesting(kAvx2): host or build lacks AVX2/PCLMUL";
  }
  g_active_path.store(path, std::memory_order_relaxed);
  g_active_ops.store(ops, std::memory_order_release);
  return previous;
}

}  // namespace simd
}  // namespace mrl
