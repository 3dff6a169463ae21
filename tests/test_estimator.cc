#include "core/estimator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "data/generators.h"
#include "data/workload.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::MustBuild;
using testing::RangeQueryOnDim;

TEST(EstimateStratumSum, ScalesByPopulation) {
  // Sample of 4 with matched sum 6 (values 1,2,3 matched; one non-match).
  const Estimate est = EstimateStratumSum(100.0, 4.0, 6.0, 14.0, false);
  EXPECT_DOUBLE_EQ(est.value, 100.0 * 6.0 / 4.0);
  // var(phi) = 14/4 - 1.5^2 = 1.25; var = 100^2 * 1.25 / 4.
  EXPECT_DOUBLE_EQ(est.variance, 10000.0 * 1.25 / 4.0);
}

TEST(EstimateStratumSum, FullSampleWithFpcHasZeroVariance) {
  // Sampling the entire stratum leaves no estimation uncertainty.
  const Estimate est = EstimateStratumSum(4.0, 4.0, 6.0, 14.0, true);
  EXPECT_DOUBLE_EQ(est.variance, 0.0);
}

TEST(EstimateStratumSum, EmptySampleYieldsZero) {
  const Estimate est = EstimateStratumSum(100.0, 0.0, 0.0, 0.0, true);
  EXPECT_DOUBLE_EQ(est.value, 0.0);
  EXPECT_DOUBLE_EQ(est.variance, 0.0);
}

// The shared stratified estimator, checked by hand: an exact part, one
// sampled stratum and one stratum without a sample.
TEST(SumCountAccumulator, FoldsExactSampledAndUnsampledStrata) {
  AggregateStats exact;  // 10 rows summing to 50
  for (int i = 0; i < 10; ++i) exact.Add(5.0);
  SampledStratum sampled;  // 4 of 100 rows; 1, 2, 3 match, one does not
  sampled.n_pop = 100.0;
  sampled.k_samp = 4.0;
  sampled.scan.matched = 3;
  sampled.scan.sum = 6.0;
  sampled.scan.sum_sq = 14.0;
  AggregateStats unsampled;  // SUM of a subset lies in [3 * -1, 3 * 5]
  for (const double v : {-1.0, 2.0, 5.0}) unsampled.Add(v);

  SumCountAccumulator acc(exact, /*use_fpc=*/true);
  acc.AddSampled(sampled);
  acc.AddUnsampled(unsampled);

  const double fpc = 96.0 / 99.0;  // (100 - 4) / (100 - 1)
  // SUM: 100 * 6/4, var(phi) = 14/4 - 1.5^2; fallback midpoint of [-3, 15].
  EXPECT_DOUBLE_EQ(acc.sum().value, 50.0 + 150.0 + 6.0);
  EXPECT_DOUBLE_EQ(acc.sum().variance,
                   1e4 * 1.25 / 4.0 * fpc + 18.0 * 18.0 / 12.0);
  // COUNT: 100 * 3/4, var(phi) = 3/4 - 0.75^2; fallback midpoint of [0, 3].
  EXPECT_DOUBLE_EQ(acc.count().value, 10.0 + 75.0 + 1.5);
  EXPECT_DOUBLE_EQ(acc.count().variance,
                   1e4 * 0.1875 / 4.0 * fpc + 3.0 * 3.0 / 12.0);
  // Cov: 100^2 * (6/4 - 1.5 * 0.75) / 4; the fallback adds none.
  EXPECT_DOUBLE_EQ(acc.sum_count_cov(), 1e4 * 0.375 / 4.0 * fpc);
}

TEST(SumCountAccumulator, EmptySampleAddsNothing) {
  AggregateStats exact;
  exact.Add(2.0);
  SampledStratum empty;
  empty.n_pop = 100.0;
  SumCountAccumulator acc(exact, /*use_fpc=*/true);
  acc.AddSampled(empty);
  EXPECT_EQ(acc.sum().value, 2.0);
  EXPECT_EQ(acc.sum().variance, 0.0);
  EXPECT_EQ(acc.count().value, 1.0);
  EXPECT_EQ(acc.sum_count_cov(), 0.0);
}

TEST(RatioEstimate, FallsBackWithoutPositiveCount) {
  const Estimate no_evidence{3.0, 0.75};
  for (const double count : {0.0, -1.0}) {
    const Estimate avg =
        RatioEstimate({5.0, 1.0}, {count, 1.0}, 0.5, no_evidence);
    EXPECT_EQ(avg.value, no_evidence.value);
    EXPECT_EQ(avg.variance, no_evidence.variance);
  }
  // With a positive count: the delta method, (4 - 2*2*1 + 2^2*1) / 5^2.
  const Estimate avg = RatioEstimate({10.0, 4.0}, {5.0, 1.0}, 1.0, {});
  EXPECT_DOUBLE_EQ(avg.value, 2.0);
  EXPECT_DOUBLE_EQ(avg.variance, 4.0 / 25.0);
}

TEST(PaperWeightsAvg, WeighsTheExactPartByItsShare) {
  AggregateStats exact;  // 2 rows, mean 3
  exact.Add(2.0);
  exact.Add(4.0);
  SampledStratum matched;  // 4 of 8 rows; 4 and 6 match
  matched.n_pop = 8.0;
  matched.k_samp = 4.0;
  matched.scan.matched = 2;
  matched.scan.sum = 10.0;
  matched.scan.sum_sq = 52.0;
  SampledStratum unmatched;  // no matched row: drops out of the weights
  unmatched.n_pop = 100.0;
  unmatched.k_samp = 5.0;

  const Estimate avg = PaperWeightsAvg(exact, {matched, unmatched},
                                       /*use_fpc=*/true, Estimate{});
  // N_q = 2 + 8; weights 0.2 and 0.8 on the means 3 and 5.
  EXPECT_DOUBLE_EQ(avg.value, 3.0 * 0.2 + 5.0 * 0.8);
  // V = (52 - 10^2/4) / 2^2 times the FPC (8 - 4) / (8 - 1).
  EXPECT_DOUBLE_EQ(avg.variance, 0.8 * 0.8 * (27.0 / 4.0) * (4.0 / 7.0));

  const Estimate none = PaperWeightsAvg(AggregateStats{}, {unmatched},
                                        /*use_fpc=*/true, {7.0, 1.0});
  EXPECT_EQ(none.value, 7.0);
  EXPECT_EQ(none.variance, 1.0);
}

// ---------------------------------------------------------------------------
// Exactness on aligned queries
// ---------------------------------------------------------------------------

TEST(Estimator, AlignedQueryIsExactWithZeroVariance) {
  const Dataset data = MakeUniform(10000, 42);
  BuildOptions options;
  options.num_leaves = 8;
  options.strategy = PartitionStrategy::kEqualDepth;
  const Synopsis s = MustBuild(data, options);
  // The root's data bounds give a query covering everything.
  const auto& bounds = s.tree().node(s.tree().root()).data_bounds;
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0,
                                  bounds.dim(0).lo, bounds.dim(0).hi);
  const QueryAnswer answer = s.Answer(q);
  const ExactResult truth = ExactAnswer(data, q);
  EXPECT_TRUE(answer.exact);
  EXPECT_NEAR(answer.estimate.value, truth.value,
              1e-9 * std::abs(truth.value));
  EXPECT_DOUBLE_EQ(answer.estimate.variance, 0.0);
  EXPECT_DOUBLE_EQ(answer.SkipRate(), 1.0);
}

TEST(Estimator, LeafAlignedQueriesExactForEveryAggregate) {
  const Dataset data = MakeUniform(5000, 43);
  BuildOptions options;
  options.num_leaves = 16;
  options.strategy = PartitionStrategy::kEqualDepth;
  const Synopsis s = MustBuild(data, options);
  // Query exactly one leaf by its data bounds.
  const int32_t leaf = s.tree().leaves()[3];
  const auto& bounds = s.tree().node(leaf).data_bounds;
  for (const auto agg : {AggregateType::kSum, AggregateType::kCount,
                         AggregateType::kAvg, AggregateType::kMin,
                         AggregateType::kMax}) {
    const Query q =
        RangeQueryOnDim(agg, 1, 0, bounds.dim(0).lo, bounds.dim(0).hi);
    const QueryAnswer answer = s.Answer(q);
    const ExactResult truth = ExactAnswer(data, q);
    EXPECT_NEAR(answer.estimate.value, truth.value,
                1e-9 * (1.0 + std::abs(truth.value)))
        << AggregateName(agg);
  }
}

// ---------------------------------------------------------------------------
// Statistical behaviour on misaligned queries
// ---------------------------------------------------------------------------

struct SeedSweep {
  double mean_est = 0.0;
  double truth = 0.0;
  double ci_coverage = 0.0;
};

SeedSweep SweepSeeds(AggregateType agg, AvgMode avg_mode, int trials) {
  const Dataset data = MakeUniform(20000, 99, 10.0, 20.0);
  const Query q = RangeQueryOnDim(agg, 1, 0, 0.123, 0.789);
  const ExactResult truth = ExactAnswer(data, q);
  SeedSweep out;
  out.truth = truth.value;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    BuildOptions options;
    options.num_leaves = 16;
    options.sample_rate = 0.01;
    options.seed = static_cast<uint64_t>(t) * 7919 + 13;
    options.estimator.avg_mode = avg_mode;
    const Synopsis s = MustBuild(data, options);
    const QueryAnswer answer = s.Answer(q);
    out.mean_est += answer.estimate.value;
    if (answer.estimate.Contains(truth.value, kLambda99)) ++covered;
  }
  out.mean_est /= trials;
  out.ci_coverage = static_cast<double>(covered) / trials;
  return out;
}

TEST(Estimator, SumApproximatelyUnbiasedAcrossSeeds) {
  const SeedSweep sweep = SweepSeeds(AggregateType::kSum, AvgMode::kRatio, 30);
  EXPECT_NEAR(sweep.mean_est / sweep.truth, 1.0, 0.01);
}

TEST(Estimator, CountApproximatelyUnbiasedAcrossSeeds) {
  const SeedSweep sweep =
      SweepSeeds(AggregateType::kCount, AvgMode::kRatio, 30);
  EXPECT_NEAR(sweep.mean_est / sweep.truth, 1.0, 0.01);
}

TEST(Estimator, AvgRatioModeNearTruth) {
  const SeedSweep sweep = SweepSeeds(AggregateType::kAvg, AvgMode::kRatio, 30);
  EXPECT_NEAR(sweep.mean_est / sweep.truth, 1.0, 0.01);
}

TEST(Estimator, AvgPaperWeightsNearTruth) {
  const SeedSweep sweep =
      SweepSeeds(AggregateType::kAvg, AvgMode::kPaperWeights, 30);
  EXPECT_NEAR(sweep.mean_est / sweep.truth, 1.0, 0.01);
}

TEST(Estimator, Ci99CoversMostSeeds) {
  const SeedSweep sweep = SweepSeeds(AggregateType::kSum, AvgMode::kRatio, 40);
  EXPECT_GE(sweep.ci_coverage, 0.85);  // nominal 0.99, finite-sample slack
}

TEST(Estimator, MoreSamplesShrinkTheCi) {
  const Dataset data = MakeIntelLike(30000, 5);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 1000.0, 21789.0);
  double prev_width = std::numeric_limits<double>::infinity();
  for (const double rate : {0.002, 0.02, 0.2}) {
    BuildOptions options;
    options.num_leaves = 16;
    options.sample_rate = rate;
    const Synopsis s = MustBuild(data, options);
    const QueryAnswer answer = s.Answer(q);
    const double width = answer.estimate.HalfWidth(kLambda99);
    EXPECT_LT(width, prev_width) << "rate=" << rate;
    prev_width = width;
  }
}

TEST(Estimator, SkipRateGrowsWithPartitions) {
  const Dataset data = MakeIntelLike(30000, 6);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 18000.0);
  double prev_skip = -1.0;
  for (const size_t k : {4u, 32u, 128u}) {
    BuildOptions options;
    options.num_leaves = k;
    options.strategy = PartitionStrategy::kEqualDepth;
    const Synopsis s = MustBuild(data, options);
    const double skip = s.Answer(q).SkipRate();
    EXPECT_GE(skip, prev_skip);
    prev_skip = skip;
  }
  EXPECT_GT(prev_skip, 0.9);
}

TEST(Estimator, ZeroVarianceRuleAnswersConstantRegionsExactly) {
  // Adversarial data: the first 7/8 of the domain is identically zero, so
  // an AVG query inside it must be answered exactly by the rule.
  const Dataset data = MakeAdversarial(16000, 7);
  BuildOptions options;
  options.num_leaves = 16;
  options.strategy = PartitionStrategy::kEqualDepth;
  options.estimator.zero_variance_rule = true;
  const Synopsis s = MustBuild(data, options);
  const Query q = RangeQueryOnDim(AggregateType::kAvg, 1, 0, 100.5, 9777.5);
  const QueryAnswer answer = s.Answer(q);
  EXPECT_DOUBLE_EQ(answer.estimate.value, 0.0);
  EXPECT_DOUBLE_EQ(answer.estimate.variance, 0.0);
}

TEST(Estimator, MinMaxReportHardBoundsInsteadOfCi) {
  const Dataset data = MakeUniform(8000, 8, -5.0, 5.0);
  BuildOptions options;
  options.num_leaves = 16;
  const Synopsis s = MustBuild(data, options);
  const Query q = RangeQueryOnDim(AggregateType::kMax, 1, 0, 0.2, 0.8);
  const QueryAnswer answer = s.Answer(q);
  const ExactResult truth = ExactAnswer(data, q);
  EXPECT_DOUBLE_EQ(answer.estimate.variance, 0.0);
  ASSERT_TRUE(answer.hard_lb && answer.hard_ub);
  EXPECT_LE(*answer.hard_lb, truth.value);
  EXPECT_GE(*answer.hard_ub, truth.value);
  // Point estimate is a valid observed value: never above the true max.
  EXPECT_LE(answer.estimate.value, truth.value + 1e-12);
}

TEST(Estimator, EmptyQueryReportsNoEvidence) {
  const Dataset data = MakeUniform(1000, 9);
  BuildOptions options;
  options.num_leaves = 4;
  const Synopsis s = MustBuild(data, options);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 50.0, 60.0);
  const QueryAnswer answer = s.Answer(q);
  EXPECT_DOUBLE_EQ(answer.estimate.value, 0.0);
  EXPECT_TRUE(answer.exact);
  EXPECT_DOUBLE_EQ(answer.SkipRate(), 1.0);
}


TEST(Estimator, LowEvidenceFlagsThinlyMatchedQueries) {
  const Dataset data = MakeUniform(50000, 12);
  BuildOptions options;
  options.num_leaves = 16;
  options.sample_rate = 0.005;
  const Synopsis s = MustBuild(data, options);
  // A sliver predicate matches almost no sampled rows.
  const Query sliver =
      RangeQueryOnDim(AggregateType::kAvg, 1, 0, 0.5000, 0.5005);
  const QueryAnswer thin = s.Answer(sliver);
  EXPECT_TRUE(thin.LowEvidence());
  // A broad predicate matches plenty.
  const Query broad = RangeQueryOnDim(AggregateType::kAvg, 1, 0, 0.1, 0.9);
  const QueryAnswer fat = s.Answer(broad);
  EXPECT_FALSE(fat.LowEvidence());
  // Only the two boundary (partial) leaves contribute evidence — interior
  // leaves are answered exactly from aggregates and scan nothing.
  EXPECT_GE(fat.matched_sample_rows, 10u);
  // Exact answers are never low-evidence regardless of match counts.
  const auto& bounds = s.tree().node(s.tree().root()).data_bounds;
  const QueryAnswer exact = s.Answer(RangeQueryOnDim(
      AggregateType::kSum, 1, 0, bounds.dim(0).lo, bounds.dim(0).hi));
  EXPECT_TRUE(exact.exact);
  EXPECT_FALSE(exact.LowEvidence());
}

// Parameterized sweep: every aggregate stays within loose relative error on
// smooth data (the tight accuracy claims live in the benches).
class EstimatorAccuracy
    : public ::testing::TestWithParam<std::tuple<AggregateType, AvgMode>> {};

TEST_P(EstimatorAccuracy, ReasonableRelativeError) {
  const auto [agg, mode] = GetParam();
  const Dataset data = MakeUniform(30000, 11, 5.0, 6.0);
  BuildOptions options;
  options.num_leaves = 32;
  options.sample_rate = 0.02;
  options.estimator.avg_mode = mode;
  const Synopsis s = MustBuild(data, options);
  const Query q = RangeQueryOnDim(agg, 1, 0, 0.1, 0.65);
  const ExactResult truth = ExactAnswer(data, q);
  const QueryAnswer answer = s.Answer(q);
  EXPECT_NEAR(answer.estimate.value / truth.value, 1.0, 0.05)
      << AggregateName(agg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorAccuracy,
    ::testing::Combine(::testing::Values(AggregateType::kSum,
                                         AggregateType::kCount,
                                         AggregateType::kAvg),
                       ::testing::Values(AvgMode::kRatio,
                                         AvgMode::kPaperWeights)));

}  // namespace
}  // namespace pass
