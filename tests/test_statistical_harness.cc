/// The repetition-heavy acceptance suite (ctest label: statistical): every
/// estimator served through the registry must produce confidence intervals
/// with >= 90% empirical coverage at the 95% nominal level, unbiased mean
/// estimates, and variance estimates consistent with the across-trial
/// spread — including the sharded engine, whose merged intervals are the
/// whole point of the answer-merge algebra. All seeds are fixed, so each
/// run is deterministic.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_answer_cache.h"
#include "common/rng.h"
#include "core/exact.h"
#include "data/generators.h"
#include "engine/engine_registry.h"
#include "engine/query_scheduler.h"
#include "shard/sharded_synopsis.h"
#include "tests/statistical_test_util.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectCoverageAtLeast;
using testing::ExpectUnbiased;
using testing::ExpectVarianceSane;
using testing::RangeQueryOnDim;
using testing::RunEstimatorTrials;
using testing::TrialStats;

// ---------------------------------------------------------------------------
// Harness self-tests: the assertions must accept a well-calibrated
// estimator and measurably reject a broken one.
// ---------------------------------------------------------------------------

/// Synthetic estimator: truth + noise * N(0,1), reporting `claimed` as its
/// variance. Calibrated when claimed == noise^2.
TrialStats SyntheticTrials(double noise, double claimed) {
  constexpr double kTruth = 1000.0;
  return RunEstimatorTrials(
      200, /*base_seed=*/777, kTruth, kLambda95, [&](uint64_t seed) {
        Rng rng(seed);
        return Estimate{kTruth + noise * rng.Normal(), claimed};
      });
}

TEST(StatisticalHarness, AcceptsCalibratedEstimator) {
  const TrialStats stats = SyntheticTrials(25.0, 25.0 * 25.0);
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectUnbiased(stats, 0.01);
  ExpectVarianceSane(stats, 0.5, 2.0);
}

TEST(StatisticalHarness, DetectsOverconfidentVariance) {
  // Variance under-reported 25x: CIs shrink 5x, coverage collapses.
  const TrialStats stats = SyntheticTrials(25.0, 25.0);
  EXPECT_LT(stats.coverage, 0.6);
  EXPECT_LT(stats.mean_reported_variance / stats.empirical_variance, 0.2);
}

TEST(StatisticalHarness, DetectsBias) {
  constexpr double kTruth = 1000.0;
  const TrialStats stats = RunEstimatorTrials(
      200, /*base_seed=*/778, kTruth, kLambda95, [&](uint64_t seed) {
        Rng rng(seed);
        return Estimate{1.5 * kTruth + rng.Normal(), 1.0};
      });
  EXPECT_GT(stats.mean_estimate, 1.4 * kTruth);  // the drift is visible
  EXPECT_LT(stats.coverage, 0.1);                // and the CIs miss
}

// ---------------------------------------------------------------------------
// Registry-wide coverage acceptance
// ---------------------------------------------------------------------------

struct EngineCase {
  std::string name;
  size_t num_shards = 1;
};

class EngineCoverage : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineCoverage, SumCiCoverageAtLeast90Percent) {
  const EngineCase& param = GetParam();
  const Dataset data = MakeIntelLike(20000, 131);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);

  const TrialStats stats = RunEstimatorTrials(
      50, /*base_seed=*/132, truth.value, kLambda95, [&](uint64_t seed) {
        EngineConfig config;
        config.sample_rate = 0.05;
        config.partitions = 16;
        config.strategy = PartitionStrategy::kEqualDepth;
        config.num_shards = param.num_shards;
        config.seed = seed;
        auto engine =
            EngineRegistry::Global().Create(param.name, data, config);
        PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
        return (*engine)->Answer(q).estimate;
      });
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectUnbiased(stats, 0.05);
  ExpectVarianceSane(stats, 0.2, 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EngineCoverage,
    ::testing::Values(EngineCase{"uniform"}, EngineCase{"stratified"},
                      EngineCase{"pass"}, EngineCase{"ensemble"},
                      EngineCase{"sharded_pass", 2},
                      EngineCase{"sharded_pass", 4}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name +
             (info.param.num_shards > 1
                  ? "_k" + std::to_string(info.param.num_shards)
                  : "");
    });

// Cache participation must not move the statistics: every trial answers
// through a cache-enabled engine TWICE and scores the second (cache-hit)
// answer. Hits replay the uncached bits exactly, so the empirical CI
// coverage of cached answers must clear the same >= 90% bar as the bare
// engine's.
TEST(CachedStatistical, CacheHitAnswersKeepCiCoverage) {
  const Dataset data = MakeIntelLike(20000, 131);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);

  const TrialStats stats = RunEstimatorTrials(
      50, /*base_seed=*/132, truth.value, kLambda95, [&](uint64_t seed) {
        EngineConfig config;
        config.sample_rate = 0.05;
        config.partitions = 16;
        config.strategy = PartitionStrategy::kEqualDepth;
        config.seed = seed;
        config.cache.enabled = true;
        auto engine = EngineRegistry::Global().Create("pass", data, config);
        PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
        (*engine)->Answer(q);  // populates the cache
        const QueryAnswer hit = (*engine)->Answer(q);
        PASS_CHECK((*engine)->AnswerCache()->Stats().exact_hits == 1);
        return hit.estimate;
      });
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectUnbiased(stats, 0.05);
  ExpectVarianceSane(stats, 0.2, 5.0);
}

// The merged AVG interval (ratio over the merged SUM/COUNT with the exact
// within-shard covariance carried by the fused per-shard answers) must
// also hold its nominal coverage.
TEST(ShardedStatistical, AvgCiCoverageAtLeast90Percent) {
  const Dataset data = MakeIntelLike(20000, 133);
  const Query q = RangeQueryOnDim(AggregateType::kAvg, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);

  const TrialStats stats = RunEstimatorTrials(
      50, /*base_seed=*/134, truth.value, kLambda95, [&](uint64_t seed) {
        EngineConfig config;
        config.sample_rate = 0.05;
        config.partitions = 16;
        config.strategy = PartitionStrategy::kEqualDepth;
        config.num_shards = 4;
        config.seed = seed;
        auto engine =
            EngineRegistry::Global().Create("sharded_pass", data, config);
        PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
        return (*engine)->Answer(q).estimate;
      });
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectUnbiased(stats, 0.05);
}

// The async serving path carries the same statistical guarantees: every
// trial's estimate is obtained through a QueryScheduler future instead of
// a direct Answer call, and the merged sharded CI must still cover. (The
// scheduler is bit-identical to the sync path, so this doubles as an
// end-to-end regression of that claim under the coverage bar.)
TEST(AsyncStatistical, SchedulerServedShardedSumCoverage) {
  const Dataset data = MakeIntelLike(20000, 131);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);

  QueryScheduler scheduler(/*num_threads=*/2);
  const TrialStats stats = RunEstimatorTrials(
      50, /*base_seed=*/132, truth.value, kLambda95, [&](uint64_t seed) {
        EngineConfig config;
        config.sample_rate = 0.05;
        config.partitions = 16;
        config.strategy = PartitionStrategy::kEqualDepth;
        config.num_shards = 2;
        config.seed = seed;
        auto engine =
            EngineRegistry::Global().Create("sharded_pass", data, config);
        PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
        ScheduledAnswer answer = scheduler.Submit(**engine, q).get();
        PASS_CHECK_MSG(answer.status.ok(), answer.status.ToString().c_str());
        return answer.answer.estimate;
      });
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectUnbiased(stats, 0.05);
  ExpectVarianceSane(stats, 0.2, 5.0);
}

// The deleted covariance-recovery hack, replicated here as the comparison
// baseline: Var(S/C) ~= (VarS - 2 r Cov + r^2 VarC) / C^2 solved for Cov
// from each shard's own AVG variance, dropped to 0 whenever the solved
// value drifts outside the Cauchy-Schwarz range (the pre-fusion failure
// mode this suite guards the replacement against).
double RecoverLegacyCovariance(const QueryAnswer& avg, const QueryAnswer& sum,
                               const QueryAnswer& count) {
  if (avg.exact || avg.matched_sample_rows == 0) return 0.0;
  const double c = count.estimate.value;
  if (!(c > 0.0)) return 0.0;
  const double r = sum.estimate.value / c;
  if (!std::isfinite(r) || r == 0.0) return 0.0;
  const double var_s = sum.estimate.variance;
  const double var_c = count.estimate.variance;
  const double cov =
      (var_s + r * r * var_c - avg.estimate.variance * c * c) / (2.0 * r);
  const double limit = std::sqrt(var_s * var_c);
  if (!std::isfinite(cov) || std::abs(cov) > limit) return 0.0;
  return cov;
}

// The fused sharded AVG must keep its nominal coverage AND, summed over
// this pinned workload, produce intervals no wider than the legacy
// three-calls-per-shard merge with recovered covariance. That is the
// typical behaviour, not a theorem — a recovery can occasionally land
// *above* the exact covariance while still inside the Cauchy-Schwarz
// range — but every seed here is fixed, so the comparison is a
// deterministic regression pin on the regime that motivated the fusion:
// recoveries that drift out of range degrade to cov = 0 and widen, the
// exact covariance never does.
TEST(ShardedStatistical, FusedAvgNoWiderThanRecoveredCovarianceBaseline) {
  const Dataset data = MakeIntelLike(20000, 137);
  const Query q = RangeQueryOnDim(AggregateType::kAvg, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);
  Query sum_q = q;
  sum_q.agg = AggregateType::kSum;
  Query count_q = q;
  count_q.agg = AggregateType::kCount;

  constexpr size_t kTrials = 50;
  size_t covered = 0;
  double fused_width = 0.0;
  double legacy_width = 0.0;
  for (size_t t = 0; t < kTrials; ++t) {
    ShardedBuildOptions options;
    options.shard.num_shards = 4;
    options.base.num_leaves = 16;
    options.base.sample_rate = 0.05;
    options.base.strategy = PartitionStrategy::kEqualDepth;
    options.base.seed = 138 + 9973 * t;
    Result<ShardedSynopsis> sharded = BuildShardedSynopsis(data, options);
    ASSERT_TRUE(sharded.ok());

    const MultiAnswer fused = sharded->AnswerMulti(q.predicate);
    if (fused.avg.estimate.Contains(truth.value, kLambda95)) ++covered;
    fused_width += fused.avg.estimate.HalfWidth(kLambda95);

    double sum = 0.0;
    double count = 0.0;
    double var_s = 0.0;
    double var_c = 0.0;
    double cov = 0.0;
    for (size_t s = 0; s < sharded->NumShards(); ++s) {
      const QueryAnswer as = sharded->shard(s).Answer(q);
      const QueryAnswer ss = sharded->shard(s).Answer(sum_q);
      const QueryAnswer cs = sharded->shard(s).Answer(count_q);
      sum += ss.estimate.value;
      count += cs.estimate.value;
      var_s += ss.estimate.variance;
      var_c += cs.estimate.variance;
      cov += RecoverLegacyCovariance(as, ss, cs);
    }
    ASSERT_GT(count, 0.0);
    const double ratio = sum / count;
    const double var = std::max(
        0.0,
        (var_s - 2.0 * ratio * cov + ratio * ratio * var_c) / (count * count));
    legacy_width += Estimate{ratio, var}.HalfWidth(kLambda95);
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.90);
  EXPECT_LE(fused_width, legacy_width * (1.0 + 1e-9))
      << "fused mean half-width "
      << fused_width / static_cast<double>(kTrials)
      << " vs recovered-covariance baseline "
      << legacy_width / static_cast<double>(kTrials);
}

// ---------------------------------------------------------------------------
// Anytime budgets: CI width monotone in budget, coverage at every level
// ---------------------------------------------------------------------------

// The anytime acceptance bar: at budget fractions {0%, 25%, 50%, 100%} of
// each query's plan cost, the mean CI half-width must be non-increasing in
// the budget (more scanning can only tighten, on average — per-trial the
// sampled variance of one leaf may exceed its midpoint fallback) and the
// empirical coverage of the library-default 99% interval must stay >= 90%
// at *every* level, including the pure-bounds zero-budget answer. Seeds
// are fixed; deterministic like the rest of the suite.
class AnytimeBudgetCoverage : public ::testing::TestWithParam<EngineCase> {};

TEST_P(AnytimeBudgetCoverage, WidthMonotoneAndCoverageAtEveryBudget) {
  const EngineCase& param = GetParam();
  const Dataset data = MakeIntelLike(20000, 139);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);

  const std::vector<double> fractions = {0.0, 0.25, 0.5, 1.0};
  constexpr size_t kTrials = 40;
  std::vector<double> mean_width(fractions.size(), 0.0);
  std::vector<size_t> covered(fractions.size(), 0);
  for (size_t t = 0; t < kTrials; ++t) {
    EngineConfig config;
    config.sample_rate = 0.05;
    config.partitions = 16;
    config.strategy = PartitionStrategy::kEqualDepth;
    config.num_shards = param.num_shards;
    config.seed = 140 + 9973 * t;
    auto engine = EngineRegistry::Global().Create(param.name, data, config);
    PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
    const uint64_t plan =
        (*engine)->AnswerMulti(q.predicate).sum.scan_units_planned;
    for (size_t f = 0; f < fractions.size(); ++f) {
      AnswerOptions options;
      options.budget.max_scan_units =
          static_cast<uint64_t>(fractions[f] * static_cast<double>(plan));
      options.seed = 1 + t;
      const QueryAnswer a = (*engine)->Answer(q, options);
      if (a.estimate.Contains(truth.value, kLambda99)) ++covered[f];
      mean_width[f] += a.estimate.HalfWidth(kLambda99);
    }
  }
  for (size_t f = 0; f < fractions.size(); ++f) {
    const double coverage =
        static_cast<double>(covered[f]) / static_cast<double>(kTrials);
    EXPECT_GE(coverage, 0.90)
        << "budget fraction " << fractions[f] << " under-covers";
    mean_width[f] /= static_cast<double>(kTrials);
    if (f > 0) {
      EXPECT_LE(mean_width[f], mean_width[f - 1] * (1.0 + 1e-9))
          << "mean CI half-width grew from budget fraction "
          << fractions[f - 1] << " (" << mean_width[f - 1] << ") to "
          << fractions[f] << " (" << mean_width[f] << ")";
    }
  }
  // The full budget executes the whole plan: nothing left to tighten.
  EXPECT_GT(mean_width[0], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Anytime, AnytimeBudgetCoverage,
    ::testing::Values(EngineCase{"pass"}, EngineCase{"sharded_pass", 2},
                      EngineCase{"sharded_pass", 4}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name +
             (info.param.num_shards > 1
                  ? "_k" + std::to_string(info.param.num_shards)
                  : "");
    });

// ---------------------------------------------------------------------------
// Refinement monotonicity: resumed sessions tighten, cover, and converge
// ---------------------------------------------------------------------------

// The progressive-answering acceptance bar: advancing ONE session through
// the budget ladder {0%, 25%, 50%, 100%} of its plan must behave exactly
// like the fresh budgeted runs above — mean 99%-CI half-width
// non-increasing across resume steps, coverage >= 90% at every step — and
// the final resumed answer must be bit-identical to a fresh run at the
// full plan. This is the statistical half of the resume-equals-restart
// contract (the bit-identity half at every intermediate step is
// test_estimation_session.cc).
class RefinementMonotonicity : public ::testing::TestWithParam<EngineCase> {};

TEST_P(RefinementMonotonicity, SessionWidthsTightenWithCoverage) {
  const EngineCase& param = GetParam();
  const Dataset data = MakeIntelLike(20000, 139);
  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 17000.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);

  const std::vector<double> fractions = {0.0, 0.25, 0.5, 1.0};
  constexpr size_t kTrials = 40;
  std::vector<double> mean_width(fractions.size(), 0.0);
  std::vector<size_t> covered(fractions.size(), 0);
  for (size_t t = 0; t < kTrials; ++t) {
    EngineConfig config;
    config.sample_rate = 0.05;
    config.partitions = 16;
    config.strategy = PartitionStrategy::kEqualDepth;
    config.num_shards = param.num_shards;
    config.seed = 140 + 9973 * t;
    auto engine = EngineRegistry::Global().Create(param.name, data, config);
    PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
    const uint64_t session_seed = 1 + t;
    const auto session = (*engine)->StartSession(q.predicate, session_seed);
    ASSERT_NE(session, nullptr);
    const uint64_t plan = session->PlanCost();
    for (size_t f = 0; f < fractions.size(); ++f) {
      const uint64_t cap =
          static_cast<uint64_t>(fractions[f] * static_cast<double>(plan));
      const QueryAnswer a = session->AdvanceTo(cap).sum;
      if (a.estimate.Contains(truth.value, kLambda99)) ++covered[f];
      mean_width[f] += a.estimate.HalfWidth(kLambda99);
    }
    // Convergence: the exhausted session reproduces a fresh full-budget
    // run bit for bit (same seed, cumulative budget = the whole plan).
    EXPECT_TRUE(session->Exhausted());
    AnswerOptions full;
    full.budget.max_scan_units = plan;
    full.seed = session_seed;
    const QueryAnswer resumed = session->AdvanceTo(plan).sum;
    const QueryAnswer fresh =
        (*engine)->AnswerMulti(q.predicate, full).sum;
    EXPECT_EQ(resumed.estimate.value, fresh.estimate.value);
    EXPECT_EQ(resumed.estimate.variance, fresh.estimate.variance);
    EXPECT_EQ(resumed.sample_rows_scanned, fresh.sample_rows_scanned);
    EXPECT_FALSE(resumed.truncated);
  }
  for (size_t f = 0; f < fractions.size(); ++f) {
    const double coverage =
        static_cast<double>(covered[f]) / static_cast<double>(kTrials);
    EXPECT_GE(coverage, 0.90)
        << "resume step " << fractions[f] << " under-covers";
    mean_width[f] /= static_cast<double>(kTrials);
    if (f > 0) {
      EXPECT_LE(mean_width[f], mean_width[f - 1] * (1.0 + 1e-9))
          << "mean CI half-width grew across the resume step from "
          << fractions[f - 1] << " (" << mean_width[f - 1] << ") to "
          << fractions[f] << " (" << mean_width[f] << ")";
    }
  }
  EXPECT_GT(mean_width[0], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Progressive, RefinementMonotonicity,
    ::testing::Values(EngineCase{"pass"}, EngineCase{"sharded_pass", 2},
                      EngineCase{"sharded_pass", 4}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name +
             (info.param.num_shards > 1
                  ? "_k" + std::to_string(info.param.num_shards)
                  : "");
    });

// COUNT merges across range shards, where whole shards drop out of the
// frontier: the additive variance must still cover.
TEST(ShardedStatistical, RangeShardedCountCoverage) {
  const Dataset data = MakeIntelLike(20000, 135);
  const Query q =
      RangeQueryOnDim(AggregateType::kCount, 1, 0, 2500.0, 9800.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);

  const TrialStats stats = RunEstimatorTrials(
      50, /*base_seed=*/136, truth.value, kLambda95, [&](uint64_t seed) {
        EngineConfig config;
        config.sample_rate = 0.05;
        config.partitions = 16;
        config.strategy = PartitionStrategy::kEqualDepth;
        config.num_shards = 4;
        config.shard_strategy = ShardStrategy::kRangeOnDim;
        config.seed = seed;
        auto engine =
            EngineRegistry::Global().Create("sharded_pass", data, config);
        PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
        return (*engine)->Answer(q).estimate;
      });
  ExpectCoverageAtLeast(stats, 0.95, 0.05);
  ExpectUnbiased(stats, 0.05);
}

}  // namespace
}  // namespace pass
