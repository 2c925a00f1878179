#include "loadgen/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace perfbench {

std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const char* OrderName(Order order) {
  switch (order) {
    case Order::kShuffled:
      return "shuffled";
    case Order::kSortedAsc:
      return "sorted_asc";
    case Order::kSortedDesc:
      return "sorted_desc";
    case Order::kSawtooth:
      return "sawtooth";
  }
  return "unknown";
}

double SortedStream::At(std::uint64_t j) const {
  const double u =
      static_cast<double>(Mix64(seed_ ^ Mix64(j + 1)) >> 11) * 0x1.0p-53;
  return (static_cast<double>(j) + u) / static_cast<double>(n_);
}

std::uint64_t SortedStream::LowerBound(double v) const {
  std::uint64_t lo = 0;
  std::uint64_t hi = n_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (At(mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint64_t SortedStream::UpperBound(double v) const {
  std::uint64_t lo = 0;
  std::uint64_t hi = n_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (At(mid) <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double SortedStream::RankError(double phi, double v) const {
  // v may hold any 1-based rank in [below + 1, at_or_below].
  const double below = static_cast<double>(LowerBound(v));
  const double at_or_below = static_cast<double>(UpperBound(v));
  const double target = phi * static_cast<double>(n_);
  const double lo = below + 1;
  const double hi = std::max(lo, at_or_below);
  const double dist = target < lo ? lo - target : target > hi ? target - hi : 0;
  return dist / static_cast<double>(n_);
}

TenantInput MakeTenant(std::uint64_t n, std::uint64_t seed, Order order) {
  TenantInput t;
  t.order = order;
  t.sorted = SortedStream(n, seed);
  t.values.resize(n);
  switch (order) {
    case Order::kShuffled: {
      for (std::uint64_t j = 0; j < n; ++j) t.values[j] = t.sorted.At(j);
      Rng rng(Mix64(seed ^ 0x5348554646ULL));
      for (std::uint64_t i = n; i > 1; --i) {
        std::swap(t.values[i - 1], t.values[rng.Below(i)]);
      }
      break;
    }
    case Order::kSortedAsc:
      for (std::uint64_t j = 0; j < n; ++j) t.values[j] = t.sorted.At(j);
      break;
    case Order::kSortedDesc:
      for (std::uint64_t j = 0; j < n; ++j) t.values[n - 1 - j] = t.sorted.At(j);
      break;
    case Order::kSawtooth: {
      // 64 ascending runs, run r holding the elements j with j % 64 == r:
      // every run sweeps the whole value range.
      constexpr std::uint64_t kRuns = 64;
      std::uint64_t pos = 0;
      for (std::uint64_t r = 0; r < kRuns; ++r) {
        for (std::uint64_t j = r; j < n; j += kRuns) t.values[pos++] = t.sorted.At(j);
      }
      break;
    }
  }
  return t;
}

std::vector<Frame> InterleaveFrames(const std::vector<std::uint64_t>& lengths,
                                    std::size_t frame_values,
                                    std::uint64_t seed) {
  std::vector<std::uint64_t> next(lengths.size(), 0);
  std::uint64_t remaining_frames = 0;
  for (std::uint64_t n : lengths) {
    remaining_frames += (n + frame_values - 1) / frame_values;
  }
  std::vector<Frame> frames;
  frames.reserve(remaining_frames);
  Rng rng(Mix64(seed ^ 0x4652414D45ULL));
  for (; remaining_frames > 0; --remaining_frames) {
    // Pick frame number `pick` among the remaining ones; its stream goes next.
    std::uint64_t pick = rng.Below(remaining_frames);
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      const std::uint64_t left =
          (lengths[i] - next[i] + frame_values - 1) / frame_values;
      if (pick >= left) {
        pick -= left;
        continue;
      }
      Frame f;
      f.stream = static_cast<std::uint32_t>(i);
      f.offset = next[i];
      f.count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(frame_values, lengths[i] - next[i]));
      next[i] += f.count;
      frames.push_back(f);
      break;
    }
  }
  return frames;
}

std::uint64_t Fingerprint(std::uint64_t h, const TenantInput& t) {
  h = Mix64(h ^ t.values.size());
  for (double v : t.values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = Mix64(h ^ bits);
  }
  return h;
}

}  // namespace perfbench
