#include <vector>

#include <gtest/gtest.h>

#include "core/multi_quantile.h"
#include "stream/generator.h"

namespace mrl {
namespace {

TEST(MultiQuantileTest, RejectsZeroQuantiles) {
  MultiQuantileSketch::Options options;
  options.num_quantiles = 0;
  EXPECT_EQ(MultiQuantileSketch::Create(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MultiQuantileTest, MemoryGrowsWithP) {
  MultiQuantileSketch::Options base;
  base.eps = 0.01;
  base.delta = 1e-4;
  base.num_quantiles = 1;
  std::uint64_t m1 =
      MultiQuantileSketch::Create(base).value().MemoryElements();
  base.num_quantiles = 100;
  std::uint64_t m100 =
      MultiQuantileSketch::Create(base).value().MemoryElements();
  EXPECT_GE(m100, m1);
  EXPECT_LT(m100, 2 * m1);  // Table 2: growth is O(log log p)
}

TEST(MultiQuantileTest, EnforcesJointQueryBudget) {
  MultiQuantileSketch::Options options;
  options.eps = 0.05;
  options.num_quantiles = 3;
  MultiQuantileSketch sketch =
      std::move(MultiQuantileSketch::Create(options)).value();
  for (int i = 0; i < 100; ++i) sketch.Add(i);
  EXPECT_TRUE(sketch.QueryMany({0.2, 0.5, 0.8}).ok());
  EXPECT_EQ(sketch.QueryMany({0.2, 0.4, 0.6, 0.8}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MultiQuantileTest, AllSplittersAccurateSimultaneously) {
  // The equi-depth use case: 9 deciles, each eps-approximate.
  StreamSpec spec;
  spec.n = 40000;
  spec.seed = 3;
  spec.distribution = "exponential";
  Dataset ds = GenerateStream(spec);
  MultiQuantileSketch::Options options;
  options.eps = 0.02;
  options.delta = 1e-4;
  options.num_quantiles = 9;
  options.seed = 5;
  MultiQuantileSketch sketch =
      std::move(MultiQuantileSketch::Create(options)).value();
  for (Value v : ds.values()) sketch.Add(v);
  std::vector<double> phis;
  for (int i = 1; i <= 9; ++i) phis.push_back(i / 10.0);
  std::vector<Value> deciles = sketch.QueryMany(phis).value();
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_LE(ds.QuantileError(deciles[i], phis[i]), options.eps)
        << "decile " << (i + 1);
  }
  // Deciles of a distribution with a strictly increasing cdf must ascend.
  for (std::size_t i = 1; i < deciles.size(); ++i) {
    EXPECT_LE(deciles[i - 1], deciles[i]);
  }
}

}  // namespace
}  // namespace mrl
