#include <cmath>

#include <gtest/gtest.h>

#include "baselines/agg_plus_uniform.h"
#include "stats/quantile.h"
#include "baselines/stratified_sampling.h"
#include "baselines/uniform_sampling.h"
#include "core/exact.h"
#include "data/generators.h"
#include "data/workload.h"
#include "tests/statistical_test_util.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectCoverageAtLeast;
using testing::ExpectUnbiased;
using testing::ExpectVarianceSane;
using testing::RangeQueryOnDim;
using testing::RunEstimatorTrials;

// ---------------------------------------------------------------------------
// Uniform sampling
// ---------------------------------------------------------------------------

TEST(UniformSampling, SampleSizeMatchesRate) {
  const Dataset data = MakeUniform(10000, 70);
  const UniformSamplingSystem us(data, 0.05, 71);
  EXPECT_EQ(us.sample_size(), 500u);
}

TEST(UniformSampling, FullRateIsExactForSumAndCount) {
  const Dataset data = MakeUniform(2000, 72);
  const UniformSamplingSystem us(data, 1.0, 73);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 0.2, 0.7);
  const ExactResult truth = ExactAnswer(data, q);
  const QueryAnswer answer = us.Answer(q);
  EXPECT_NEAR(answer.estimate.value, truth.value, 1e-9 * truth.value);
  // FPC zeroes the variance at full sampling.
  EXPECT_NEAR(answer.estimate.variance, 0.0, 1e-9);
}

TEST(UniformSampling, UnbiasedWithNominalCoverage) {
  const Dataset data = MakeUniform(20000, 74, 3.0, 9.0);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 0.1, 0.4);
  const ExactResult truth = ExactAnswer(data, q);
  const testing::TrialStats stats = RunEstimatorTrials(
      60, /*base_seed=*/505, truth.value, kLambda95, [&](uint64_t seed) {
        return UniformSamplingSystem(data, 0.02, seed).Answer(q).estimate;
      });
  ExpectUnbiased(stats, 0.02);
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectVarianceSane(stats);
}

TEST(UniformSampling, AvgModesBothReasonable) {
  const Dataset data = MakeUniform(20000, 75, 100.0, 110.0);
  const Query q = RangeQueryOnDim(AggregateType::kAvg, 1, 0, 0.3, 0.8);
  const ExactResult truth = ExactAnswer(data, q);
  for (const AvgMode mode : {AvgMode::kRatio, AvgMode::kPaperWeights}) {
    EstimatorOptions options;
    options.avg_mode = mode;
    const UniformSamplingSystem us(data, 0.02, 76, options);
    EXPECT_NEAR(us.Answer(q).estimate.value / truth.value, 1.0, 0.01);
  }
}

TEST(UniformSampling, SelectiveQueriesHaveWiderCis) {
  const Dataset data = MakeUniform(50000, 77);
  const UniformSamplingSystem us(data, 0.01, 78);
  const Query wide = RangeQueryOnDim(AggregateType::kAvg, 1, 0, 0.0, 1.0);
  const Query narrow = RangeQueryOnDim(AggregateType::kAvg, 1, 0, 0.5, 0.505);
  EXPECT_GT(us.Answer(narrow).estimate.variance,
            us.Answer(wide).estimate.variance);
}

TEST(UniformSampling, NoHardBounds) {
  const Dataset data = MakeUniform(1000, 79);
  const UniformSamplingSystem us(data, 0.1, 80);
  const QueryAnswer answer =
      us.Answer(RangeQueryOnDim(AggregateType::kSum, 1, 0, 0.0, 1.0));
  EXPECT_FALSE(answer.hard_lb.has_value());
  EXPECT_FALSE(answer.hard_ub.has_value());
}

TEST(Scramble, NamedAndSized) {
  const Dataset data = MakeUniform(10000, 81);
  const auto scramble = MakeScramble(data, 0.1, 82);
  EXPECT_EQ(scramble.Name(), "Scramble-10%");
  EXPECT_EQ(scramble.sample_size(), 1000u);
  EXPECT_GT(scramble.Costs().storage_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Stratified sampling
// ---------------------------------------------------------------------------

TEST(StratifiedSampling, BuildsRequestedStrata) {
  const Dataset data = MakeUniform(10000, 83);
  const StratifiedSamplingSystem st(data, 16, 0.01, 0, 84);
  EXPECT_EQ(st.NumStrata(), 16u);
}

TEST(StratifiedSampling, UnbiasedWithNominalCoverage) {
  const Dataset data = MakeIntelLike(20000, 85);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  const testing::TrialStats stats = RunEstimatorTrials(
      60, /*base_seed=*/303, truth.value, kLambda95, [&](uint64_t seed) {
        return StratifiedSamplingSystem(data, 16, 0.02, 0, seed)
            .Answer(q)
            .estimate;
      });
  ExpectUnbiased(stats, 0.03);
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectVarianceSane(stats);
}

TEST(StratifiedSampling, BeatsUniformOnStratifiedData) {
  // Strongly segment-dependent values: stratification should reduce error.
  const Dataset data = MakeIntelLike(50000, 86);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 100;
  wl.seed = 87;
  const auto queries = RandomRangeQueries(data, wl);
  double us_err = 0.0;
  double st_err = 0.0;
  const UniformSamplingSystem us(data, 0.01, 88);
  const StratifiedSamplingSystem st(data, 64, 0.01, 0, 88);
  size_t scored = 0;
  for (const Query& q : queries) {
    const ExactResult truth = ExactAnswer(data, q);
    if (truth.matched == 0 || truth.value == 0.0) continue;
    ++scored;
    us_err += std::abs(us.Answer(q).estimate.value - truth.value) /
              std::abs(truth.value);
    st_err += std::abs(st.Answer(q).estimate.value - truth.value) /
              std::abs(truth.value);
  }
  ASSERT_GT(scored, 50u);
  EXPECT_LT(st_err, us_err);
}

TEST(StratifiedSampling, SkipsDisjointStrata) {
  const Dataset data = MakeUniform(20000, 89);
  const StratifiedSamplingSystem st(data, 32, 0.01, 0, 90);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 0.4, 0.41);
  const QueryAnswer answer = st.Answer(q);
  EXPECT_GT(answer.SkipRate(), 0.9);
}

// ---------------------------------------------------------------------------
// AQP++ and KD-US
// ---------------------------------------------------------------------------

TEST(AqpPlusPlus, ExactOnAlignedAndGoodOnRandom) {
  const Dataset data = MakeIntelLike(30000, 91);
  AqpPlusPlusOptions options;
  options.num_partitions = 32;
  options.sample_rate = 0.01;
  options.seed = 92;
  const auto aqp = MakeAqpPlusPlus(data, options);
  EXPECT_EQ(aqp.Name(), "AQP++");
  EXPECT_EQ(aqp.tree().NumLeaves(), aqp.tree().NumNodes() - 1);  // flat

  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 100;
  wl.seed = 93;
  std::vector<double> errors;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const ExactResult truth = ExactAnswer(data, q);
    if (truth.matched == 0 || truth.value == 0.0) continue;
    errors.push_back(std::abs(aqp.Answer(q).estimate.value - truth.value) /
                     std::abs(truth.value));
  }
  ASSERT_GT(errors.size(), 50u);
  // Median: the paper's summary statistic; the mean is dominated by a few
  // highly selective queries at this sample size.
  EXPECT_LT(Median(errors), 0.05);
}

TEST(AqpPlusPlus, HardBoundsContainTruth) {
  const Dataset data = MakeIntelLike(20000, 94);
  AqpPlusPlusOptions options;
  options.num_partitions = 16;
  options.seed = 95;
  const auto aqp = MakeAqpPlusPlus(data, options);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 60;
  wl.seed = 96;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const ExactResult truth = ExactAnswer(data, q);
    if (truth.matched == 0) continue;
    const QueryAnswer answer = aqp.Answer(q);
    ASSERT_TRUE(answer.hard_lb && answer.hard_ub);
    const double slack = 1e-9 * (1.0 + std::abs(truth.value));
    EXPECT_GE(truth.value, *answer.hard_lb - slack);
    EXPECT_LE(truth.value, *answer.hard_ub + slack);
  }
}

// A zero-row global sample gives the gap no evidence, so the partial
// leaves fall back to their contribution bounds: the answer stays finite
// (no 0/0 covariance reaches the AVG variance), inside its hard bounds,
// and reports the uncertainty of the leaves it could not estimate.
TEST(AqpPlusPlus, EmptySampleKeepsAvgVarianceFinite) {
  const Dataset data = MakeUniform(2000);
  AqpPlusPlusOptions options;
  options.num_partitions = 16;
  options.sample_rate = 1e-4;  // rounds to 0 rows
  const auto aqp = MakeAqpPlusPlus(data, options);
  ASSERT_EQ(aqp.sample_size(), 0u);
  const QueryAnswer answer =
      aqp.Answer(RangeQueryOnDim(AggregateType::kAvg, 1, 0, 0.1, 0.9));
  ASSERT_GT(answer.covered_nodes, 0u);
  ASSERT_GT(answer.partial_leaves, 0u);
  EXPECT_TRUE(std::isfinite(answer.estimate.value));
  EXPECT_TRUE(std::isfinite(answer.estimate.variance));
  EXPECT_GT(answer.estimate.variance, 0.0);
  for (const AggregateType agg : {AggregateType::kSum, AggregateType::kCount}) {
    const QueryAnswer a = aqp.Answer(RangeQueryOnDim(agg, 1, 0, 0.1, 0.9));
    EXPECT_FALSE(a.exact) << AggregateName(agg);
    EXPECT_GT(a.estimate.variance, 0.0) << AggregateName(agg);
    ASSERT_TRUE(a.hard_lb.has_value() && a.hard_ub.has_value());
    EXPECT_GE(a.estimate.value, *a.hard_lb) << AggregateName(agg);
    EXPECT_LE(a.estimate.value, *a.hard_ub) << AggregateName(agg);
  }
}

TEST(KdUs, MultiDimAnswersReasonable) {
  const Dataset data = MakeTaxiLike(30000, 97).WithPredDims(2);
  KdUsOptions options;
  options.partition_dims = {0, 1};
  options.max_leaves = 64;
  options.sample_rate = 0.02;
  options.seed = 98;
  const auto kdus = MakeKdUs(data, options);
  EXPECT_EQ(kdus.Name(), "KD-US");
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 80;
  wl.template_dims = {0, 1};
  wl.seed = 99;
  size_t scored = 0;
  double err = 0.0;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const ExactResult truth = ExactAnswer(data, q);
    if (truth.matched < 100) continue;
    ++scored;
    err += std::abs(kdus.Answer(q).estimate.value - truth.value) /
           std::abs(truth.value);
  }
  ASSERT_GT(scored, 20u);
  EXPECT_LT(err / static_cast<double>(scored), 0.25);
}

TEST(KdUs, EssIsWholeSampleEveryQuery) {
  // The defining weakness vs PASS: the global uniform sample is always
  // scanned in full.
  const Dataset data = MakeTaxiLike(10000, 100).WithPredDims(2);
  KdUsOptions options;
  options.partition_dims = {0, 1};
  options.max_leaves = 16;
  options.sample_rate = 0.05;
  const auto kdus = MakeKdUs(data, options);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 2, 0, 100.0, 200.0);
  EXPECT_EQ(kdus.Answer(q).sample_rows_scanned, kdus.sample_size());
}

}  // namespace
}  // namespace pass
