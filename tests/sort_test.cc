// Tests for the radix sort engine (util/sort.h): the order-preserving key
// transform (round trip + order preservation against std::strong_order),
// and differential tests of SortValues / SortPairs / SortValuesDescending
// against the comparison-sort references over adversarial inputs — ±0.0,
// ±inf, denormals, all-equal, presorted, reverse, organ-pipe — at sizes
// straddling the radix cutoff. Outputs are compared bit for bit, which is
// what lets the sketches' golden state hashes survive the engine swap.

#include "util/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "util/random.h"
#include "util/types.h"

namespace mrl {
namespace {

/// Random non-NaN double drawn uniformly over bit patterns, so the full
/// exponent range (denormals, both zeros, both infinities) is exercised.
Value RandomNonNaNBits(Random* rng) {
  for (;;) {
    const Value v = std::bit_cast<Value>(rng->NextUint64());
    if (!std::isnan(v)) return v;
  }
}

TEST(OrderedKeyTest, RoundTripsRandomBitPatterns) {
  Random rng(1);
  for (int i = 0; i < 200000; ++i) {
    const Value v = RandomNonNaNBits(&rng);
    const Value back = ValueFromOrderedKey(OrderedKeyFromValue(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
              std::bit_cast<std::uint64_t>(back));
  }
}

TEST(OrderedKeyTest, RoundTripsSpecialValues) {
  const Value specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<Value>::infinity(),
      -std::numeric_limits<Value>::infinity(),
      std::numeric_limits<Value>::denorm_min(),
      -std::numeric_limits<Value>::denorm_min(),
      std::numeric_limits<Value>::min(),
      std::numeric_limits<Value>::max(),
      std::numeric_limits<Value>::lowest(),
      1.0,
      -1.0,
  };
  for (Value v : specials) {
    const Value back = ValueFromOrderedKey(OrderedKeyFromValue(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
              std::bit_cast<std::uint64_t>(back));
  }
}

TEST(OrderedKeyTest, MatchesStrongOrderOnRandomPairs) {
  Random rng(2);
  for (int i = 0; i < 200000; ++i) {
    const Value a = RandomNonNaNBits(&rng);
    const Value b = RandomNonNaNBits(&rng);
    const std::uint64_t ka = OrderedKeyFromValue(a);
    const std::uint64_t kb = OrderedKeyFromValue(b);
    // On non-NaN doubles the transform's order IS IEEE totalOrder, which
    // std::strong_order implements.
    const std::strong_ordering expected = std::strong_order(a, b);
    if (expected == std::strong_ordering::less) {
      EXPECT_LT(ka, kb) << a << " vs " << b;
    } else if (expected == std::strong_ordering::greater) {
      EXPECT_GT(ka, kb) << a << " vs " << b;
    } else {
      EXPECT_EQ(ka, kb) << a << " vs " << b;
    }
  }
}

TEST(OrderedKeyTest, ZerosAreAdjacentWithNegativeFirst) {
  const std::uint64_t k_neg = OrderedKeyFromValue(-0.0);
  const std::uint64_t k_pos = OrderedKeyFromValue(0.0);
  EXPECT_EQ(k_neg + 1, k_pos);
}

TEST(OrderedKeyTest, TotalOrderEndpoints) {
  const Value inf = std::numeric_limits<Value>::infinity();
  const Value denorm = std::numeric_limits<Value>::denorm_min();
  EXPECT_LT(OrderedKeyFromValue(-inf),
            OrderedKeyFromValue(std::numeric_limits<Value>::lowest()));
  EXPECT_LT(OrderedKeyFromValue(-denorm), OrderedKeyFromValue(-0.0));
  EXPECT_LT(OrderedKeyFromValue(0.0), OrderedKeyFromValue(denorm));
  EXPECT_LT(OrderedKeyFromValue(std::numeric_limits<Value>::max()),
            OrderedKeyFromValue(inf));
}

/// Adversarial input families, by name for failure messages.
std::vector<Value> MakeInput(const std::string& family, std::size_t n,
                             Random* rng) {
  std::vector<Value> v(n);
  if (family == "uniform") {
    for (Value& x : v) x = rng->UniformDouble(-1.0, 1.0);
  } else if (family == "bits") {
    for (Value& x : v) x = RandomNonNaNBits(rng);
  } else if (family == "zeros_and_infs") {
    const Value pool[] = {0.0, -0.0, 1.0, -1.0,
                          std::numeric_limits<Value>::infinity(),
                          -std::numeric_limits<Value>::infinity(),
                          std::numeric_limits<Value>::denorm_min(),
                          -std::numeric_limits<Value>::denorm_min()};
    for (Value& x : v) x = pool[rng->UniformUint64(8)];
  } else if (family == "all_equal") {
    for (Value& x : v) x = 42.0;
  } else if (family == "presorted") {
    double acc = -1000.0;
    for (Value& x : v) {
      acc += rng->UniformDouble();
      x = acc;
    }
  } else if (family == "reverse") {
    double acc = 1000.0;
    for (Value& x : v) {
      acc -= rng->UniformDouble();
      x = acc;
    }
  } else if (family == "organ_pipe") {
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<Value>(std::min(i, n - i));
    }
  } else if (family == "narrow_range") {
    // Keys agreeing on most high bytes: exercises pass skipping mid-sort.
    for (Value& x : v) x = 1.0 + rng->UniformDouble() * 1e-12;
  } else {
    ADD_FAILURE() << "unknown family " << family;
  }
  return v;
}

void ExpectBitIdentical(const std::vector<Value>& got,
                        const std::vector<Value>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " differs at index " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

TEST(SortValuesTest, MatchesNaiveBitForBit) {
  const char* families[] = {"uniform",   "bits",      "zeros_and_infs",
                            "all_equal", "presorted", "reverse",
                            "organ_pipe", "narrow_range"};
  // Sizes straddle the radix cutoff (both comparison and radix paths).
  const std::size_t sizes[] = {0, 1, 2, 3, 17, 255, 256, 257, 1024, 8192};
  Random rng(3);
  SortScratch scratch;
  for (const char* family : families) {
    for (std::size_t n : sizes) {
      std::vector<Value> input = MakeInput(family, n, &rng);
      std::vector<Value> got = input;
      std::vector<Value> want = input;
      SortValues(got.data(), got.size(), &scratch);
      SortValuesNaive(want.data(), want.size());
      ExpectBitIdentical(got, want,
                         std::string(family) + "/" + std::to_string(n));
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), OrderedLess));
    }
  }
}

TEST(SortValuesTest, ThreadLocalOverloadMatchesScratchOverload) {
  Random rng(4);
  std::vector<Value> input = MakeInput("bits", 4096, &rng);
  std::vector<Value> a = input;
  std::vector<Value> b = input;
  SortScratch scratch;
  SortValues(a.data(), a.size(), &scratch);
  SortValues(b.data(), b.size());
  ExpectBitIdentical(a, b, "thread-local overload");
}

TEST(SortValuesDescendingTest, IsReversedTotalOrder) {
  Random rng(5);
  SortScratch scratch;
  for (std::size_t n : {std::size_t{0}, std::size_t{7}, std::size_t{255},
                        std::size_t{257}, std::size_t{4096}}) {
    std::vector<Value> input = MakeInput("zeros_and_infs", n, &rng);
    std::vector<Value> got = input;
    std::vector<Value> want = input;
    SortValuesDescending(got.data(), got.size());
    SortValues(want.data(), want.size(), &scratch);
    std::reverse(want.begin(), want.end());
    ExpectBitIdentical(got, want, "descending/" + std::to_string(n));
  }
}

TEST(SortPairsTest, MatchesStableNaiveBitForBit) {
  Random rng(6);
  SortScratch scratch;
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{255},
                        std::size_t{256}, std::size_t{257}, std::size_t{1024},
                        std::size_t{2047}, std::size_t{2048},
                        std::size_t{8192}}) {
    std::vector<KeyedPayload> input(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct keys -> many ties, so stability is load-bearing.
      input[i] = {static_cast<Value>(rng.UniformUint64(16)) * 0.5, i};
    }
    std::vector<KeyedPayload> got = input;
    std::vector<KeyedPayload> want = input;
    SortPairs(got.data(), got.size(), &scratch);
    SortPairsNaive(want.data(), want.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].first),
                std::bit_cast<std::uint64_t>(want[i].first))
          << "key at " << i;
      ASSERT_EQ(got[i].second, want[i].second) << "payload at " << i;
    }
  }
}

TEST(SortPairsTest, StableOnEqualKeysIncludingBothZeros) {
  // All keys compare equal per byte except the zeros; payloads of
  // bitwise-identical keys must keep input order. One size on each side
  // of the pairs radix cutoff.
  for (std::size_t n : {std::size_t{600}, std::size_t{6000}}) {
    std::vector<KeyedPayload> input;
    for (std::uint64_t i = 0; i < n; ++i) {
      input.push_back({(i % 2 == 0) ? 0.0 : -0.0, i});
    }
    SortPairs(input.data(), input.size());
    // Total order puts all -0.0 first, then all +0.0, each group in input
    // (odd/even payload) order.
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) {
      EXPECT_TRUE(std::signbit(input[i].first)) << n << " " << i;
      EXPECT_EQ(input[i].second, 2 * i + 1) << n << " " << i;
    }
    for (std::size_t i = half; i < n; ++i) {
      EXPECT_FALSE(std::signbit(input[i].first)) << n << " " << i;
      EXPECT_EQ(input[i].second, 2 * (i - half)) << n << " " << i;
    }
  }
}

TEST(SortValuesTest, ScratchIsReusableAcrossSizes) {
  // Shrinking then growing n must not confuse the arena.
  Random rng(7);
  SortScratch scratch;
  for (std::size_t n : {std::size_t{8192}, std::size_t{16}, std::size_t{300},
                        std::size_t{8192}, std::size_t{257}}) {
    std::vector<Value> input = MakeInput("uniform", n, &rng);
    std::vector<Value> want = input;
    SortValues(input.data(), input.size(), &scratch);
    SortValuesNaive(want.data(), want.size());
    ExpectBitIdentical(input, want, "reuse/" + std::to_string(n));
  }
}

}  // namespace
}  // namespace mrl
