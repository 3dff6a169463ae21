#include "core/stratified_sample.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/estimator.h"
#include "stats/sampling.h"
#include "tests/statistical_test_util.h"

namespace pass {
namespace {

StratifiedSample MakeSample() {
  StratifiedSample s(2);
  s.AddRow({1.0, 10.0}, 5.0);
  s.AddRow({2.0, 20.0}, 7.0);
  s.AddRow({3.0, 30.0}, -2.0);
  return s;
}

Rect Box(double x0, double x1, double y0, double y1) {
  Rect r(2);
  r.dim(0) = {x0, x1};
  r.dim(1) = {y0, y1};
  return r;
}

TEST(StratifiedSample, SizeAndAccess) {
  const StratifiedSample s = MakeSample();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.NumDims(), 2u);
  EXPECT_DOUBLE_EQ(s.agg(2), -2.0);
  EXPECT_DOUBLE_EQ(s.pred(1, 1), 20.0);
}

TEST(StratifiedSample, ScanAllMatch) {
  const StratifiedSample s = MakeSample();
  const auto r = s.Scan(Rect::All(2));
  EXPECT_EQ(r.matched, 3u);
  EXPECT_DOUBLE_EQ(r.sum, 10.0);
  EXPECT_DOUBLE_EQ(r.sum_sq, 25.0 + 49.0 + 4.0);
  EXPECT_DOUBLE_EQ(r.min, -2.0);
  EXPECT_DOUBLE_EQ(r.max, 7.0);
}

TEST(StratifiedSample, ScanPartialMatch) {
  const StratifiedSample s = MakeSample();
  const auto r = s.Scan(Box(1.5, 3.5, 0.0, 25.0));
  EXPECT_EQ(r.matched, 1u);  // only row (2.0, 20.0)
  EXPECT_DOUBLE_EQ(r.sum, 7.0);
}

TEST(StratifiedSample, ScanNoMatch) {
  const StratifiedSample s = MakeSample();
  const auto r = s.Scan(Box(100.0, 200.0, 0.0, 100.0));
  EXPECT_EQ(r.matched, 0u);
  EXPECT_DOUBLE_EQ(r.sum, 0.0);
}

TEST(StratifiedSample, RemoveRowSwapsWithLast) {
  StratifiedSample s = MakeSample();
  s.RemoveRow(0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.agg(0), -2.0);  // former last row moved into slot 0
  EXPECT_DOUBLE_EQ(s.pred(0, 0), 3.0);
}

TEST(StratifiedSample, PayloadBytesScalesWithDims) {
  const StratifiedSample s = MakeSample();
  EXPECT_EQ(s.PayloadBytes(), 3u * 3u * sizeof(double));
}

TEST(StratifiedSample, SizeBytesReportsReservedCapacity) {
  StratifiedSample s(2);
  s.Reserve(100);
  // Reserve commits the allocation up front: the footprint reflects it
  // even before any row arrives, while the payload stays zero.
  EXPECT_EQ(s.PayloadBytes(), 0u);
  EXPECT_GE(s.SizeBytes(), 3u * 100u * sizeof(double));
  s.AddRow({1.0, 10.0}, 5.0);
  EXPECT_EQ(s.PayloadBytes(), 3u * sizeof(double));
  EXPECT_GE(s.SizeBytes(), 3u * 100u * sizeof(double));
  EXPECT_GE(s.SizeBytes(), s.PayloadBytes());
}

TEST(StratifiedSample, EmptyScan) {
  StratifiedSample s(1);
  const auto r = s.Scan(Rect::All(1));
  EXPECT_EQ(r.matched, 0u);
}

// The statistical contract behind every leaf sample: scanning a uniform
// without-replacement subsample and expanding it with EstimateStratumSum
// is unbiased for the stratum SUM, with a variance good for nominal CLT
// coverage. Exercised through the statistical harness on a fixed
// heavy-ish-tailed population.
TEST(StratifiedSample, StratumSumEstimatorIsUnbiasedWithCoverage) {
  constexpr size_t kPopulation = 4000;
  constexpr size_t kSampleSize = 250;
  Rng pop_rng(4242);
  std::vector<double> values(kPopulation);
  double truth = 0.0;
  for (double& v : values) {
    v = pop_rng.LogNormal(1.0, 0.75);
    truth += v;
  }

  const testing::TrialStats stats = testing::RunEstimatorTrials(
      80, /*base_seed=*/9001, truth, kLambda95, [&](uint64_t seed) {
        Rng rng(seed);
        const std::vector<size_t> rows =
            SampleWithoutReplacement(kPopulation, kSampleSize, &rng);
        StratifiedSample sample(1);
        for (const size_t row : rows) {
          sample.AddRow({static_cast<double>(row)}, values[row]);
        }
        const auto scan = sample.Scan(Rect::All(1));
        const Estimate est = EstimateStratumSum(
            static_cast<double>(kPopulation),
            static_cast<double>(sample.size()), scan.sum, scan.sum_sq,
            /*use_fpc=*/true);
        return est;
      });
  testing::ExpectUnbiased(stats, 0.02);
  testing::ExpectCoverageAtLeast(stats, 0.95, 0.05);
  testing::ExpectVarianceSane(stats, 0.5, 2.0);
}

}  // namespace
}  // namespace pass
