#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stream/distribution.h"
#include "stream/generator.h"
#include "stream/text_stream.h"
#include "util/random.h"

namespace mrl {
namespace {

// ------------------------------------------------------ New distributions

TEST(ExtraDistributionTest, FactoryKnowsNewNames) {
  for (const char* name : {"lognormal", "pareto", "bimodal"}) {
    auto dist = MakeDistribution(name);
    ASSERT_NE(dist, nullptr) << name;
    EXPECT_EQ(dist->name(), name);
  }
}

TEST(ExtraDistributionTest, LogNormalMedianIsExpMu) {
  LogNormalDistribution dist(2.0, 0.7);
  Random rng(3);
  std::vector<Value> values;
  for (int i = 0; i < 40000; ++i) values.push_back(dist.Draw(&rng));
  Dataset ds(std::move(values));
  // Median of lognormal(mu, sigma) is exp(mu).
  EXPECT_NEAR(ds.ExactQuantile(0.5), std::exp(2.0), 0.15);
  EXPECT_GT(ds.Min(), 0.0);
}

TEST(ExtraDistributionTest, ParetoQuantilesMatchClosedForm) {
  const double scale = 2.0, shape = 1.5;
  ParetoDistribution dist(scale, shape);
  Random rng(5);
  std::vector<Value> values;
  for (int i = 0; i < 60000; ++i) values.push_back(dist.Draw(&rng));
  Dataset ds(std::move(values));
  // Q(p) = scale / (1-p)^(1/shape).
  for (double p : {0.5, 0.9}) {
    double expected = scale / std::pow(1.0 - p, 1.0 / shape);
    EXPECT_NEAR(ds.ExactQuantile(p) / expected, 1.0, 0.05) << "p=" << p;
  }
  EXPECT_GE(ds.Min(), scale);
}

TEST(ExtraDistributionTest, BimodalHasMassAtBothModes) {
  BimodalDistribution dist(-5.0, 5.0, 1.0);
  Random rng(7);
  int low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    Value v = dist.Draw(&rng);
    if (v < 0) ++low;
    if (v > 0) ++high;
  }
  EXPECT_NEAR(low, 10000, 400);
  EXPECT_NEAR(high, 10000, 400);
}

TEST(ExtraDistributionTest, GeneratorAcceptsNewNames) {
  StreamSpec spec;
  spec.distribution = "pareto";
  spec.n = 100;
  spec.seed = 9;
  EXPECT_EQ(GenerateStream(spec).size(), 100u);
}

// ------------------------------------------------------------ Text stream

TEST(TextStreamTest, RoundTrip) {
  std::string path = ::testing::TempDir() + "/mrl_text_roundtrip.txt";
  std::vector<Value> values = {1.5, -2.25, 0.0, 1e300, 5e-324};
  ASSERT_TRUE(WriteValuesTextFile(path, values).ok());
  TextValueReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<Value> read_back;
  Value v;
  while (reader.Next(&v)) read_back.push_back(v);
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(read_back, values);
  std::remove(path.c_str());
}

TEST(TextStreamTest, SkipsBlanksAndComments) {
  std::string path = ::testing::TempDir() + "/mrl_text_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# header comment\n\n  1.5\n   # indented comment\n2.5 \n\n",
             f);
  std::fclose(f);
  TextValueReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<Value> values;
  Value v;
  while (reader.Next(&v)) values.push_back(v);
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(values, (std::vector<Value>{1.5, 2.5}));
  std::remove(path.c_str());
}

TEST(TextStreamTest, MalformedLineReportsLineNumber) {
  std::string path = ::testing::TempDir() + "/mrl_text_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1.0\n2.0\nnot_a_number\n4.0\n", f);
  std::fclose(f);
  TextValueReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Value v;
  EXPECT_TRUE(reader.Next(&v));
  EXPECT_TRUE(reader.Next(&v));
  EXPECT_FALSE(reader.Next(&v));
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("line 3"), std::string::npos)
      << reader.status().message();
  std::remove(path.c_str());
}

TEST(TextStreamTest, TrailingGarbageRejected) {
  std::string path = ::testing::TempDir() + "/mrl_text_trailing.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("3.5 oops\n", f);
  std::fclose(f);
  TextValueReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Value v;
  EXPECT_FALSE(reader.Next(&v));
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TextStreamTest, MissingFileFails) {
  TextValueReader reader;
  EXPECT_EQ(reader.Open("/no/such/file.txt").code(), StatusCode::kNotFound);
}

TEST(TextStreamTest, EmptyFileYieldsNothing) {
  std::string path = ::testing::TempDir() + "/mrl_text_empty.txt";
  ASSERT_TRUE(WriteValuesTextFile(path, {}).ok());
  TextValueReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Value v;
  EXPECT_FALSE(reader.Next(&v));
  EXPECT_TRUE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(TextStreamTest, DoubleOpenFails) {
  std::string path = ::testing::TempDir() + "/mrl_text_double.txt";
  ASSERT_TRUE(WriteValuesTextFile(path, {1.0}).ok());
  TextValueReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.Open(path).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrl
