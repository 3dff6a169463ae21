#include "stats/sampling.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>
#include "stats/quantile.h"

namespace pass {
namespace {

TEST(SampleWithoutReplacement, ExactSizeAndDistinct) {
  Rng rng(1);
  const auto s = SampleWithoutReplacement(1000, 100, &rng);
  EXPECT_EQ(s.size(), 100u);
  std::set<size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 100u);
  for (const size_t i : s) EXPECT_LT(i, 1000u);
}

TEST(SampleWithoutReplacement, SortedOutput) {
  Rng rng(2);
  const auto s = SampleWithoutReplacement(5000, 500, &rng);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(SampleWithoutReplacement, KGreaterThanNReturnsAll) {
  Rng rng(3);
  const auto s = SampleWithoutReplacement(10, 50, &rng);
  EXPECT_EQ(s.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(SampleWithoutReplacement, KZeroIsEmpty) {
  Rng rng(4);
  EXPECT_TRUE(SampleWithoutReplacement(100, 0, &rng).empty());
}

TEST(SampleWithoutReplacement, ApproximatelyUniformInclusion) {
  // Each index should be included with probability k/n = 0.2.
  Rng rng(5);
  const size_t n = 50;
  const size_t k = 10;
  std::vector<int> hits(n, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (const size_t i : SampleWithoutReplacement(n, k, &rng)) ++hits[i];
  }
  for (const int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.2, 0.02);
  }
}

TEST(Quantile, MedianOfOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Quantile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.75), 7.5);
}

TEST(QuantileDeathTest, EmptyInputAborts) {
  EXPECT_DEATH({ (void)Median({}); }, "PASS_CHECK");
}

}  // namespace
}  // namespace pass
