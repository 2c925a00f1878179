// Seeded workload inputs and the exact-rank oracle.
//
// Every tenant stream is a permutation of a sorted sequence the benchmark
// can recompute from (n, seed) alone: s(j) = (j + u_j) / n with u_j a
// hash-derived uniform in [0, 1). The oracle therefore needs no stored
// sorted copy and no sort — the exact rank of any value is a binary search
// over s — so exact ranks for 32M-value streams cost no memory. The
// arrival orders are implemented here rather than taken from src/stream,
// so a change to the program cannot change the benchmark's inputs.
#ifndef PERFBENCH_LOADGEN_INPUTS_H_
#define PERFBENCH_LOADGEN_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// SplitMix64 step: the benchmark's only source of randomness.
std::uint64_t Mix64(std::uint64_t x);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() { return Mix64(state_ += 0x9E3779B97F4A7C15ULL); }
  /// Uniform in [0, 1) with 53 random bits.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

enum class Order { kShuffled, kSortedAsc, kSortedDesc, kSawtooth };
const char* OrderName(Order order);

/// The sorted sequence s(0..n) of one stream, recomputed on demand.
class SortedStream {
 public:
  SortedStream(std::uint64_t n, std::uint64_t seed) : n_(n), seed_(seed) {}
  std::uint64_t n() const { return n_; }
  double At(std::uint64_t j) const;
  /// Worst rank error of answer `v` for quantile `phi`, as a fraction of n:
  /// the distance from phi*n to the nearest 1-based rank `v` can hold in
  /// the sorted stream.
  double RankError(double phi, double v) const;

 private:
  std::uint64_t LowerBound(double v) const;  ///< #{j : s(j) < v}
  std::uint64_t UpperBound(double v) const;  ///< #{j : s(j) <= v}
  std::uint64_t n_;
  std::uint64_t seed_;
};

/// One tenant's stream in arrival order plus what the oracle needs.
struct TenantInput {
  Order order = Order::kShuffled;
  SortedStream sorted{0, 0};
  std::vector<double> values;  ///< arrival order
};

/// Generates a stream of n values from `seed` in `order`.
TenantInput MakeTenant(std::uint64_t n, std::uint64_t seed, Order order);

/// A frame: `count` consecutive values of stream `stream` from `offset`.
struct Frame {
  std::uint32_t stream = 0;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
};

/// Cuts streams of the given lengths into frames of `frame_values` and
/// interleaves them in a seeded order, picking the next stream with
/// probability proportional to its remaining frames; each stream's frames
/// keep their order. Frame::stream indexes `lengths`.
std::vector<Frame> InterleaveFrames(const std::vector<std::uint64_t>& lengths,
                                    std::size_t frame_values,
                                    std::uint64_t seed);

/// Folds every value of `t` into hash `h`: equal seeds must give equal
/// fingerprints, different seeds different ones.
std::uint64_t Fingerprint(std::uint64_t h, const TenantInput& t);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_INPUTS_H_
