#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_alloc.h"
#include "core/parallel.h"
#include "core/params.h"
#include "util/math.h"

namespace mrl {
namespace {

// ---------------------------------------------------------- SolveUnknownN

struct EpsDelta {
  double eps;
  double delta;
};

class UnknownNSolverTest : public ::testing::TestWithParam<EpsDelta> {};

TEST_P(UnknownNSolverTest, SolutionSatisfiesAllConstraints) {
  const double eps = GetParam().eps;
  const double delta = GetParam().delta;
  Result<UnknownNParams> r = SolveUnknownN(eps, delta);
  ASSERT_TRUE(r.ok()) << r.status();
  const UnknownNParams& p = r.value();
  EXPECT_GE(p.b, 2);
  EXPECT_GE(p.k, 1u);
  EXPECT_GE(p.h, 1);
  EXPECT_GT(p.alpha, 0.0);
  EXPECT_LT(p.alpha, 1.0);

  const double ld = static_cast<double>(SaturatingBinomial(
      static_cast<std::uint64_t>(p.b + p.h - 2),
      static_cast<std::uint64_t>(p.h - 1)));
  const double ls = static_cast<double>(SaturatingBinomial(
      static_cast<std::uint64_t>(p.b + p.h - 3),
      static_cast<std::uint64_t>(p.h - 1)));
  const double k = static_cast<double>(p.k);
  // Eq. 1 (sampling): min(L_d k, 8/3 L_s k) >= ln(2/delta)/(2(1-a)^2 eps^2).
  const double lhs = std::min(ld * k, (8.0 / 3.0) * ls * k);
  const double rhs = std::log(2.0 / delta) /
                     (2.0 * (1.0 - p.alpha) * (1.0 - p.alpha) * eps * eps);
  EXPECT_GE(lhs * (1 + 1e-9) + 1, rhs);
  // Eq. 2 (tree): h + 1 <= 2 alpha eps k.
  EXPECT_LE(p.h + 1, 2.0 * p.alpha * eps * k * (1 + 1e-9) + 1);
  // Eq. 3 is implied by Eq. 2 (alpha < 1).
  EXPECT_LE(p.h + 1, 2.0 * eps * k * (1 + 1e-9) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UnknownNSolverTest,
    ::testing::Values(EpsDelta{0.1, 1e-2}, EpsDelta{0.1, 1e-4},
                      EpsDelta{0.05, 1e-3}, EpsDelta{0.01, 1e-2},
                      EpsDelta{0.01, 1e-4}, EpsDelta{0.005, 1e-3},
                      EpsDelta{0.001, 1e-4}, EpsDelta{0.3, 0.5}),
    [](const ::testing::TestParamInfo<EpsDelta>& info) {
      return "eps" + std::to_string(static_cast<int>(1e4 * info.param.eps)) +
             "_delta" +
             std::to_string(static_cast<int>(-std::log10(info.param.delta)));
    });

TEST(UnknownNSolverTest, MemoryGrowsAsEpsShrinks) {
  std::uint64_t prev = 0;
  for (double eps : {0.1, 0.05, 0.01, 0.005, 0.001}) {
    std::uint64_t mem = UnknownNMemoryElements(eps, 1e-4).value();
    EXPECT_GT(mem, prev) << "eps=" << eps;
    prev = mem;
  }
}

TEST(UnknownNSolverTest, MemoryGrowsSlowlyInDelta) {
  // Theorem 1: the delta dependence is log log — going from 1e-2 to 1e-6
  // must cost well under 2x.
  std::uint64_t loose = UnknownNMemoryElements(0.01, 1e-2).value();
  std::uint64_t tight = UnknownNMemoryElements(0.01, 1e-6).value();
  EXPECT_GE(tight, loose);
  EXPECT_LT(tight, 2 * loose);
}

TEST(UnknownNSolverTest, NearlyLinearInInverseEps) {
  // Theorem 1: space is O(eps^-1 log^2 eps^-1) — a 10x tighter eps should
  // cost far less than the reservoir baseline's 100x.
  std::uint64_t a = UnknownNMemoryElements(0.01, 1e-4).value();
  std::uint64_t bm = UnknownNMemoryElements(0.001, 1e-4).value();
  double ratio = static_cast<double>(bm) / static_cast<double>(a);
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 40.0);
}

TEST(UnknownNSolverTest, ExtraHeightCostsMemory) {
  std::uint64_t base =
      SolveUnknownN(0.01, 1e-4, 0).value().MemoryElements();
  std::uint64_t taller =
      SolveUnknownN(0.01, 1e-4, 6).value().MemoryElements();
  EXPECT_GE(taller, base);
  EXPECT_LT(taller, 2 * base);  // the parallel overhead is modest
}

// The solver's answers are part of the checkpoint contract (a restored
// sketch re-solves its shape from eps/delta), so they are pinned exactly:
// alpha to the last bit. Covers extra_height 0 (single sketch) and 4 (the
// Section 6 worker default, SolveParallelWorker).
struct SolvedShape {
  double eps;
  double delta;
  int extra_height;
  int b;
  std::size_t k;
  int h;
  double alpha;
  std::uint64_t leaves_before_sampling;
};

constexpr SolvedShape kPinnedShapes[] = {
    {0.1, 0.01, 0, 4, 50, 5, 0x1.376d505ec613fp-1, 35u},
    {0.1, 0.01, 4, 3, 93, 5, 0x1.1352b57062a31p-1, 15u},
    {0.1, 0.0001, 0, 4, 58, 6, 0x1.375338d6ee717p-1, 56u},
    {0.1, 0.0001, 4, 4, 82, 6, 0x1.57c791f261aa6p-1, 56u},
    {0.1, 1e-06, 0, 4, 64, 6, 0x1.192bbb5bb91efp-1, 56u},
    {0.1, 1e-06, 4, 4, 89, 6, 0x1.3c9a8e58c3e1p-1, 56u},
    {0.05, 0.01, 0, 4, 118, 6, 0x1.32271bf809a44p-1, 56u},
    {0.05, 0.01, 4, 4, 167, 6, 0x1.532a0afd9f6d6p-1, 56u},
    {0.05, 0.0001, 0, 5, 112, 6, 0x1.40243fd4bdc69p-1, 126u},
    {0.05, 0.0001, 4, 4, 192, 7, 0x1.414d41e5fc868p-1, 84u},
    {0.05, 1e-06, 0, 5, 121, 7, 0x1.52e286726a83ep-1, 210u},
    {0.05, 1e-06, 4, 4, 210, 8, 0x1.3d90ccd7d79bdp-1, 120u},
    {0.02, 0.01, 0, 5, 297, 7, 0x1.591599fcaf2f7p-1, 210u},
    {0.02, 0.01, 4, 4, 514, 7, 0x1.2b2f1dbee41c5p-1, 84u},
    {0.02, 0.0001, 0, 5, 340, 8, 0x1.53330995940cdp-1, 330u},
    {0.02, 0.0001, 4, 5, 459, 8, 0x1.6b37c20ef33ap-1, 330u},
    {0.02, 1e-06, 0, 5, 370, 8, 0x1.378d3b402942fp-1, 330u},
    {0.02, 1e-06, 4, 5, 492, 8, 0x1.523965a259a21p-1, 330u},
    {0.01, 0.01, 0, 5, 689, 8, 0x1.4e7f62d45873dp-1, 330u},
    {0.01, 0.01, 4, 5, 928, 8, 0x1.66ff06ce5b2aep-1, 330u},
    {0.01, 0.0001, 0, 6, 652, 8, 0x1.616feb9a01d2ep-1, 792u},
    {0.01, 0.0001, 4, 5, 1043, 9, 0x1.57c791f261aa9p-1, 495u},
    {0.01, 1e-06, 0, 6, 699, 9, 0x1.6e8bed263debdp-1, 1287u},
    {0.01, 1e-06, 4, 6, 929, 9, 0x1.81dee28bcc26ep-1, 1287u},
    {0.005, 0.01, 0, 6, 1321, 8, 0x1.5d031916013d4p-1, 792u},
    {0.005, 0.01, 4, 5, 2114, 9, 0x1.532a0afd9f6d5p-1, 495u},
    {0.005, 0.0001, 0, 6, 1477, 9, 0x1.5ab66ffe31afap-1, 1287u},
    {0.005, 0.0001, 4, 6, 1948, 9, 0x1.7011970034499p-1, 1287u},
    {0.005, 1e-06, 0, 7, 1363, 9, 0x1.77abac400489p-1, 3003u},
    {0.005, 1e-06, 4, 6, 2060, 10, 0x1.74d5252bd5f26p-1, 2002u},
    {0.001, 0.01, 0, 7, 7492, 10, 0x1.77e78341a3dfap-1, 5005u},
    {0.001, 0.01, 4, 6, 11358, 11, 0x1.68a62ba8a086fp-1, 3003u},
    {0.001, 0.0001, 0, 7, 8260, 11, 0x1.73e9c7b5dc792p-1, 8008u},
    {0.001, 0.0001, 4, 7, 10555, 11, 0x1.8412d35f6396cp-1, 8008u},
    {0.001, 1e-06, 0, 8, 7695, 11, 0x1.8f4449060c99p-1, 19448u},
    {0.001, 1e-06, 4, 7, 11134, 12, 0x1.86e731bf08ae7p-1, 12376u},
};

TEST(UnknownNSolverTest, PinnedShapes) {
  for (const SolvedShape& want : kPinnedShapes) {
    Result<UnknownNParams> got =
        SolveUnknownN(want.eps, want.delta, want.extra_height);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value().b, want.b) << want.eps << " " << want.delta;
    EXPECT_EQ(got.value().k, want.k) << want.eps << " " << want.delta;
    EXPECT_EQ(got.value().h, want.h) << want.eps << " " << want.delta;
    EXPECT_EQ(got.value().alpha, want.alpha) << want.eps << " " << want.delta;
    EXPECT_EQ(got.value().leaves_before_sampling, want.leaves_before_sampling)
        << want.eps << " " << want.delta;
  }
  ParallelOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  options.coordinator_extra_height = 4;
  Result<UnknownNParams> worker = SolveParallelWorker(options);
  ASSERT_TRUE(worker.ok()) << worker.status();
  EXPECT_EQ(worker.value().b, 5);
  EXPECT_EQ(worker.value().k, 1043u);
  EXPECT_EQ(worker.value().h, 9);
  EXPECT_EQ(worker.value().alpha, 0x1.57c791f261aa9p-1);
  EXPECT_EQ(worker.value().leaves_before_sampling, 495u);
}

TEST(UnknownNSolverTest, RejectsInvalidArguments) {
  EXPECT_EQ(SolveUnknownN(0.0, 0.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveUnknownN(1.0, 0.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveUnknownN(0.01, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveUnknownN(0.01, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveUnknownN(0.01, 0.5, -1).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ SolveKnownN

TEST(KnownNSolverTest, SmallStreamsUseDeterministicVariant) {
  Result<KnownNParams> p = SolveKnownN(0.01, 1e-4, 10000);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().rate, 1u);
  // Capacity covers the stream.
  const std::uint64_t leaves = SaturatingBinomial(
      static_cast<std::uint64_t>(p.value().b + p.value().h - 2),
      static_cast<std::uint64_t>(p.value().h - 1));
  EXPECT_GE(leaves * p.value().k, 10000u);
}

TEST(KnownNSolverTest, HugeStreamsSample) {
  Result<KnownNParams> p = SolveKnownN(0.01, 1e-4, std::uint64_t{1} << 40);
  ASSERT_TRUE(p.ok());
  EXPECT_GT(p.value().rate, 1u);
  EXPECT_GT(p.value().alpha, 0.0);
  EXPECT_LT(p.value().alpha, 1.0);
}

TEST(KnownNSolverTest, MemoryGrowsThenPlateaus) {
  // The Figure 4 "Known N" shape: nondecreasing-ish growth for small N,
  // then a plateau once sampling dominates.
  std::uint64_t mem_small = KnownNMemoryElements(0.01, 1e-4, 1000).value();
  std::uint64_t mem_mid =
      KnownNMemoryElements(0.01, 1e-4, 10'000'000).value();
  std::uint64_t mem_big =
      KnownNMemoryElements(0.01, 1e-4, std::uint64_t{1} << 50).value();
  std::uint64_t mem_huge =
      KnownNMemoryElements(0.01, 1e-4, std::uint64_t{1} << 60).value();
  EXPECT_LT(mem_small, mem_mid);
  // Plateau: another 2^10 of growth costs nothing.
  EXPECT_EQ(mem_big, mem_huge);
}

TEST(KnownNSolverTest, UnknownNWithinTwiceKnownN) {
  // The paper's headline comparison (Table 1): the unknown-N algorithm
  // needs no more than twice the memory of the known-N one.
  for (double eps : {0.05, 0.01, 0.005}) {
    std::uint64_t unknown = UnknownNMemoryElements(eps, 1e-4).value();
    std::uint64_t known =
        KnownNMemoryElements(eps, 1e-4, std::uint64_t{1} << 50).value();
    EXPECT_LE(unknown, 2 * known) << "eps=" << eps;
  }
}

TEST(KnownNSolverTest, RejectsZeroN) {
  EXPECT_EQ(SolveKnownN(0.01, 1e-4, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// Pinned bit-exact like kPinnedShapes: two deterministic (rate 1) answers
// and six sampled ones, from 10^3 to 2^60 elements.
struct KnownShape {
  double eps;
  double delta;
  std::uint64_t n;
  int b;
  std::size_t k;
  int h;
  Weight rate;
  double alpha;
};

constexpr KnownShape kPinnedKnownShapes[] = {
    {0.1, 0.01, 1000u, 3, 40, 7, 1u, 0x1p+0},
    {0.05, 0.0001, 100000u, 4, 139, 8, 6u, 0x1.4cccccccccccdp-1},
    {0.01, 0.0001, 10000u, 3, 400, 7, 1u, 0x1p+0},
    {0.01, 0.0001, 10000000u, 5, 786, 10, 18u, 0x1.6666666666667p-1},
    {0.01, 0.0001, 1099511627776u, 5, 786, 10, 1998407u,
     0x1.6666666666667p-1},
    {0.001, 1e-06, 1073741824u, 8, 7858, 10, 13u, 0x1.6666666666667p-1},
    {0.001, 0.0001, 1125899906842624u, 8, 7334, 10, 14210901u, 0x1.8p-1},
    {0.005, 0.01, 1152921504606846976u, 6, 1334, 9, 680004331920u,
     0x1.8p-1},
};

TEST(KnownNSolverTest, PinnedShapes) {
  for (const KnownShape& want : kPinnedKnownShapes) {
    Result<KnownNParams> got = SolveKnownN(want.eps, want.delta, want.n);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value().b, want.b) << want.eps << " " << want.n;
    EXPECT_EQ(got.value().k, want.k) << want.eps << " " << want.n;
    EXPECT_EQ(got.value().h, want.h) << want.eps << " " << want.n;
    EXPECT_EQ(got.value().rate, want.rate) << want.eps << " " << want.n;
    EXPECT_EQ(got.value().alpha, want.alpha) << want.eps << " " << want.n;
    EXPECT_EQ(got.value().n, want.n);
  }
}

// ------------------------------------------------------------ Concurrency

// The solvers are pure functions: solving on several threads at once must
// give the serial answers (and, under TSan, touch no shared state).
TEST(SolverConcurrencyTest, ParallelSolvesMatchSerial) {
  const std::vector<MemoryLimitPoint> limits = {{0, 1'200},
                                                {5'000, 2'400},
                                                {20'000, 4'000},
                                                {100'000, 8'000},
                                                {500'000, 16'000}};
  struct Answers {
    std::vector<UnknownNParams> unknown;
    std::vector<KnownNParams> known;
    DynamicAllocationPlan plan;
  };
  auto solve_all = [&]() {
    Answers a;
    for (const SolvedShape& s : kPinnedShapes) {
      a.unknown.push_back(
          SolveUnknownN(s.eps, s.delta, s.extra_height).value());
    }
    for (const KnownShape& s : kPinnedKnownShapes) {
      a.known.push_back(SolveKnownN(s.eps, s.delta, s.n).value());
    }
    a.plan = PlanDynamicAllocation(0.01, 1e-4, limits).value();
    return a;
  };
  const Answers serial = solve_all();

  constexpr int kThreads = 4;
  std::vector<Answers> parallel(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { parallel[t] = solve_all(); });
  }
  for (std::thread& t : threads) t.join();

  for (const Answers& got : parallel) {
    ASSERT_EQ(got.unknown.size(), serial.unknown.size());
    for (std::size_t i = 0; i < got.unknown.size(); ++i) {
      EXPECT_EQ(got.unknown[i].b, serial.unknown[i].b);
      EXPECT_EQ(got.unknown[i].k, serial.unknown[i].k);
      EXPECT_EQ(got.unknown[i].h, serial.unknown[i].h);
      EXPECT_EQ(got.unknown[i].alpha, serial.unknown[i].alpha);
      EXPECT_EQ(got.unknown[i].leaves_before_sampling,
                serial.unknown[i].leaves_before_sampling);
    }
    ASSERT_EQ(got.known.size(), serial.known.size());
    for (std::size_t i = 0; i < got.known.size(); ++i) {
      EXPECT_EQ(got.known[i].b, serial.known[i].b);
      EXPECT_EQ(got.known[i].k, serial.known[i].k);
      EXPECT_EQ(got.known[i].h, serial.known[i].h);
      EXPECT_EQ(got.known[i].rate, serial.known[i].rate);
      EXPECT_EQ(got.known[i].alpha, serial.known[i].alpha);
    }
    EXPECT_EQ(got.plan.params.b, serial.plan.params.b);
    EXPECT_EQ(got.plan.params.k, serial.plan.params.k);
    EXPECT_EQ(got.plan.params.h, serial.plan.params.h);
    EXPECT_EQ(got.plan.params.alpha, serial.plan.params.alpha);
    EXPECT_EQ(got.plan.params.leaves_before_sampling,
              serial.plan.params.leaves_before_sampling);
    EXPECT_EQ(got.plan.allocate_at, serial.plan.allocate_at);
  }
}

// ---------------------------------------------------------------- Others

TEST(ReservoirMemoryTest, QuadraticGap) {
  // Section 2.2: reservoir needs O(eps^-2) while MRL99 needs ~eps^-1; at
  // eps = 0.001 the gap must be enormous.
  std::uint64_t reservoir = ReservoirMemoryElements(0.001, 1e-4);
  std::uint64_t mrl = UnknownNMemoryElements(0.001, 1e-4).value();
  EXPECT_GT(reservoir, 50 * mrl);
}

TEST(MultiQuantileMemoryTest, GrowsSlowlyWithP) {
  // Table 2: p from 1 to 1000 costs only a small factor.
  std::uint64_t p1 = MultiQuantileMemoryElements(0.01, 1e-4, 1).value();
  std::uint64_t p1000 =
      MultiQuantileMemoryElements(0.01, 1e-4, 1000).value();
  EXPECT_GE(p1000, p1);
  EXPECT_LT(p1000, 2 * p1);
}

TEST(MultiQuantileMemoryTest, RejectsZeroP) {
  EXPECT_EQ(MultiQuantileMemoryElements(0.01, 1e-4, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PrecomputedGridMemoryTest, CostsMoreThanModerateP) {
  // Table 2's last column: the precompute trick costs noticeably more than
  // p = 1000 but is independent of p.
  std::uint64_t p1000 =
      MultiQuantileMemoryElements(0.01, 1e-4, 1000).value();
  std::uint64_t grid = PrecomputedGridMemoryElements(0.01, 1e-4).value();
  EXPECT_GT(grid, p1000);
}

}  // namespace
}  // namespace mrl
