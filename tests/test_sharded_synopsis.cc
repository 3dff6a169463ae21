#include "shard/sharded_synopsis.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectAnswersBitIdentical;
using testing::RangeQueryOnDim;

BuildOptions FastBuild(size_t leaves = 32) {
  BuildOptions options;
  options.num_leaves = leaves;
  options.sample_rate = 0.02;
  options.strategy = PartitionStrategy::kEqualDepth;
  options.seed = 91;
  return options;
}

ShardedSynopsis MustBuildSharded(const Dataset& data, size_t num_shards,
                                 ShardStrategy strategy,
                                 BuildOptions base = FastBuild()) {
  ShardedBuildOptions options;
  options.shard.num_shards = num_shards;
  options.shard.strategy = strategy;
  options.base = base;
  Result<ShardedSynopsis> built = BuildShardedSynopsis(data, options);
  PASS_CHECK_MSG(built.ok(), built.status().ToString().c_str());
  return std::move(built).value();
}

std::vector<Query> MixedWorkload(const Dataset& data, size_t count,
                                 uint64_t seed) {
  std::vector<Query> queries;
  for (const AggregateType agg :
       {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg,
        AggregateType::kMin, AggregateType::kMax}) {
    WorkloadOptions wl;
    wl.agg = agg;
    wl.count = count;
    wl.seed = seed + static_cast<uint64_t>(agg);
    const auto batch = RandomRangeQueries(data, wl);
    queries.insert(queries.end(), batch.begin(), batch.end());
  }
  return queries;
}

// The defining property: one shard is no shard. A K=1 round-robin build
// preserves the row order, so the shard's synopsis is the unsharded one
// and every answer (all five aggregates, all fields) is bit-identical.
TEST(ShardedSynopsis, SingleShardIsBitIdenticalToPlainPass) {
  const Dataset data = MakeIntelLike(15000, 92);
  Result<Synopsis> plain = BuildSynopsis(data, FastBuild());
  ASSERT_TRUE(plain.ok());
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 1, ShardStrategy::kRoundRobin);
  ASSERT_EQ(sharded.NumShards(), 1u);
  for (const Query& q : MixedWorkload(data, 20, 93)) {
    ExpectAnswersBitIdentical(sharded.Answer(q), plain->Answer(q));
  }
}

EngineConfig PaperWeightsConfig(size_t num_shards) {
  EngineConfig config;
  config.partitions = 32;
  config.sample_rate = 0.02;
  config.strategy = PartitionStrategy::kEqualDepth;
  config.num_shards = num_shards;
  config.seed = 97;
  config.estimator.avg_mode = AvgMode::kPaperWeights;
  return config;
}

// Two or more shards answer AVG as the ratio over the merged SUM and
// COUNT, so a paper-weights build is refused instead of silently answering
// with the ratio estimator.
TEST(ShardedSynopsis, PaperWeightsAvgIsRejectedAcrossShards) {
  const Dataset data = MakeIntelLike(8000, 95);
  for (const size_t k : {2u, 4u}) {
    const auto engine = EngineRegistry::Global().Create(
        "sharded_pass", data, PaperWeightsConfig(k));
    ASSERT_FALSE(engine.ok()) << "K=" << k;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  }
  EngineConfig ratio = PaperWeightsConfig(2);
  ratio.estimator.avg_mode = AvgMode::kRatio;
  EXPECT_TRUE(
      EngineRegistry::Global().Create("sharded_pass", data, ratio).ok());
}

// One shard keeps the mode: its paper-weights AVG answers are the plain
// pass engine's, bit for bit.
TEST(ShardedSynopsis, SingleShardPaperWeightsAvgIsBitIdenticalToPass) {
  const Dataset data = MakeIntelLike(8000, 96);
  const auto sharded = EngineRegistry::Global().Create(
      "sharded_pass", data, PaperWeightsConfig(1));
  const auto plain =
      EngineRegistry::Global().Create("pass", data, PaperWeightsConfig(1));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EngineConfig ratio_config = PaperWeightsConfig(1);
  ratio_config.estimator.avg_mode = AvgMode::kRatio;
  const auto ratio =
      EngineRegistry::Global().Create("pass", data, ratio_config);
  ASSERT_TRUE(ratio.ok()) << ratio.status().ToString();
  WorkloadOptions wl;
  wl.agg = AggregateType::kAvg;
  wl.count = 40;
  wl.seed = 98;
  size_t differ_from_ratio = 0;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const QueryAnswer answer = (*sharded)->Answer(q);
    ExpectAnswersBitIdentical(answer, (*plain)->Answer(q));
    differ_from_ratio += answer.estimate.value !=
                         (*ratio)->Answer(q).estimate.value;
  }
  EXPECT_GT(differ_from_ratio, 0u) << "the mode must be in effect";
}

// COUNT/SUM merging is pure addition: for a query every shard answers
// exactly (aligned with its root/leaves), the merged estimate is exactly
// the sum of the per-shard estimates, flagged exact, with zero variance.
TEST(ShardedSynopsis, ExactQueriesMergeToExactSums) {
  const Dataset data = MakeIntelLike(12000, 94);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kRoundRobin);
  ASSERT_EQ(sharded.NumShards(), 4u);
  for (const AggregateType agg :
       {AggregateType::kSum, AggregateType::kCount}) {
    Query q;
    q.agg = agg;
    q.predicate = Rect::All(data.NumPredDims());  // covers every shard root
    double sum_of_shards = 0.0;
    for (size_t s = 0; s < sharded.NumShards(); ++s) {
      const QueryAnswer part = sharded.shard(s).Answer(q);
      EXPECT_TRUE(part.exact);
      sum_of_shards += part.estimate.value;
    }
    const QueryAnswer merged = sharded.Answer(q);
    EXPECT_TRUE(merged.exact);
    EXPECT_DOUBLE_EQ(merged.estimate.value, sum_of_shards);
    EXPECT_DOUBLE_EQ(merged.estimate.variance, 0.0);
    const ExactResult truth = ExactAnswer(data, q);
    EXPECT_NEAR(merged.estimate.value, truth.value,
                1e-9 * (1.0 + std::abs(truth.value)));
  }
}

// Partial (sampled) COUNT/SUM queries: the merged estimate is still the
// exact sum of per-shard estimates and the merged variance the sum of
// per-shard variances — the independence rule of the merge algebra.
TEST(ShardedSynopsis, SampledSumsAddEstimatesAndVariances) {
  const Dataset data = MakeIntelLike(12000, 95);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 3, ShardStrategy::kRoundRobin);
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(), 0,
                                  2500.0, 15321.0);
  double value = 0.0;
  double variance = 0.0;
  for (size_t s = 0; s < sharded.NumShards(); ++s) {
    const QueryAnswer part = sharded.shard(s).Answer(q);
    value += part.estimate.value;
    variance += part.estimate.variance;
  }
  const QueryAnswer merged = sharded.Answer(q);
  EXPECT_FALSE(merged.exact);
  EXPECT_DOUBLE_EQ(merged.estimate.value, value);
  EXPECT_DOUBLE_EQ(merged.estimate.variance, variance);
}

TEST(ShardedSynopsis, SumHardBoundsAddAndContainTruth) {
  const Dataset data = MakeIntelLike(10000, 96);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kRangeOnDim);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 40;
  wl.seed = 97;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const QueryAnswer merged = sharded.Answer(q);
    ASSERT_TRUE(merged.hard_lb && merged.hard_ub);
    const ExactResult truth = ExactAnswer(data, q);
    const double slack = 1e-9 * (1.0 + std::abs(truth.value));
    EXPECT_GE(truth.value, *merged.hard_lb - slack);
    EXPECT_LE(truth.value, *merged.hard_ub + slack);
  }
}

TEST(ShardedSynopsis, MinMaxMergeTakesShardExtrema) {
  const Dataset data = MakeIntelLike(10000, 98);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kRoundRobin);
  for (const bool is_min : {true, false}) {
    const Query q =
        RangeQueryOnDim(is_min ? AggregateType::kMin : AggregateType::kMax,
                        data.NumPredDims(), 0, 2000.0, 20000.0);
    const QueryAnswer merged = sharded.Answer(q);
    double best = is_min ? 1e300 : -1e300;
    for (size_t s = 0; s < sharded.NumShards(); ++s) {
      const double v = sharded.shard(s).Answer(q).estimate.value;
      best = is_min ? std::min(best, v) : std::max(best, v);
    }
    EXPECT_DOUBLE_EQ(merged.estimate.value, best);
    // The true extremum must respect the merged deterministic bounds.
    const ExactResult truth = ExactAnswer(data, q);
    ASSERT_GT(truth.matched, 0u);
    ASSERT_TRUE(merged.hard_lb && merged.hard_ub);
    EXPECT_GE(truth.value, *merged.hard_lb);
    EXPECT_LE(truth.value, *merged.hard_ub);
  }
}

// A valid (non-degenerate) predicate that misses the whole table: every
// shard reports an empty frontier, and the merged MIN/MAX must stay
// well-defined at K=2 and K=4 — estimate 0, exact, no spurious bounds —
// for both shard strategies (range sharding makes every shard disjoint,
// round-robin gives every shard a nonempty tree that still matches
// nothing).
TEST(ShardedSynopsis, MinMaxOverAllEmptyShardsIsWellDefined) {
  const Dataset data = MakeIntelLike(10000, 95);
  for (const size_t k : {2u, 4u}) {
    for (const ShardStrategy strategy :
         {ShardStrategy::kRoundRobin, ShardStrategy::kRangeOnDim}) {
      const ShardedSynopsis sharded = MustBuildSharded(data, k, strategy);
      for (const AggregateType agg :
           {AggregateType::kMin, AggregateType::kMax}) {
        // Domain is [0, 10000): nothing matches [30000, 40000].
        const Query q = RangeQueryOnDim(agg, data.NumPredDims(), 0, 30000.0,
                                        40000.0);
        const QueryAnswer merged = sharded.Answer(q);
        EXPECT_DOUBLE_EQ(merged.estimate.value, 0.0);
        EXPECT_TRUE(merged.exact);
        EXPECT_EQ(merged.matched_sample_rows, 0u);
        EXPECT_EQ(merged.covered_nodes, 0u);
        EXPECT_EQ(merged.partial_leaves, 0u);
        EXPECT_EQ(merged.population_rows_skipped, merged.population_rows);
        if (merged.hard_lb || merged.hard_ub) {
          // If bounds survive the merge they must at least be ordered and
          // finite — never an unmerged +/-infinity sentinel.
          ASSERT_TRUE(merged.hard_lb && merged.hard_ub);
          EXPECT_TRUE(std::isfinite(*merged.hard_lb));
          EXPECT_TRUE(std::isfinite(*merged.hard_ub));
          EXPECT_LE(*merged.hard_lb, *merged.hard_ub);
        }
      }
    }
  }
}

TEST(ShardedSynopsis, AvgMergeIsRatioOfMergedSumAndCount) {
  const Dataset data = MakeIntelLike(12000, 99);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kRoundRobin);
  const Query q = RangeQueryOnDim(AggregateType::kAvg, data.NumPredDims(), 0,
                                  3137.0, 9421.0);
  Query sum_q = q;
  sum_q.agg = AggregateType::kSum;
  Query count_q = q;
  count_q.agg = AggregateType::kCount;
  const QueryAnswer merged = sharded.Answer(q);
  const double sum = sharded.Answer(sum_q).estimate.value;
  const double count = sharded.Answer(count_q).estimate.value;
  ASSERT_GT(count, 0.0);
  EXPECT_DOUBLE_EQ(merged.estimate.value, sum / count);
  EXPECT_GT(merged.estimate.variance, 0.0);
  // Point accuracy is the statistical harness's job (single sample here);
  // this just guards against a grossly wrong ratio.
  const ExactResult truth = ExactAnswer(data, q);
  EXPECT_NEAR(merged.estimate.value / truth.value, 1.0, 0.15);
}

// A query disjoint from some shards (range sharding makes whole shards
// miss): the merge must skip the no-intersection shards without
// corrupting the estimate or the bounds.
TEST(ShardedSynopsis, RangeShardingSkipsDisjointShards) {
  const Dataset data = MakeIntelLike(10000, 100);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kRangeOnDim);
  // Narrow query near the low end of the time axis: upper range shards
  // cannot intersect it.
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(), 0,
                                  0.0, 3000.0);
  const QueryAnswer merged = sharded.Answer(q);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);
  EXPECT_GT(merged.SkipRate(), 0.5);
  EXPECT_NEAR(merged.estimate.value / truth.value, 1.0, 0.2);
  ASSERT_TRUE(merged.hard_lb && merged.hard_ub);
  const double slack = 1e-9 * (1.0 + std::abs(truth.value));
  EXPECT_GE(truth.value, *merged.hard_lb - slack);
  EXPECT_LE(truth.value, *merged.hard_ub + slack);
}

TEST(ShardedSynopsis, HashShardingAnswersReasonably) {
  const Dataset data = MakeInstacartLike(12000, 101);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kHash);
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(), 0,
                                  100.0, 2500.0);
  const ExactResult truth = ExactAnswer(data, q);
  ASSERT_GT(truth.matched, 0u);
  EXPECT_NEAR(sharded.Answer(q).estimate.value / truth.value, 1.0, 0.2);
}

TEST(ShardedSynopsis, CostsAggregateAcrossShards) {
  const Dataset data = MakeUniform(8000, 102);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kRoundRobin);
  uint64_t storage = 0;
  for (size_t s = 0; s < sharded.NumShards(); ++s) {
    storage += sharded.shard(s).Costs().storage_bytes;
  }
  EXPECT_EQ(sharded.Costs().storage_bytes, storage);
  EXPECT_EQ(sharded.NumRows(), data.NumRows());
}

// Fair-total split: K shards together store about what one synopsis built
// with the same options would (leaves and samples both).
TEST(ShardedSynopsis, FairTotalBudgetSplit) {
  const Dataset data = MakeUniform(20000, 103);
  const BuildOptions base = FastBuild(32);
  const ShardedSynopsis sharded =
      MustBuildSharded(data, 4, ShardStrategy::kRoundRobin, base);
  size_t total_leaves = 0;
  size_t total_samples = 0;
  for (size_t s = 0; s < sharded.NumShards(); ++s) {
    total_leaves += sharded.shard(s).NumLeaves();
    for (size_t leaf = 0; leaf < sharded.shard(s).NumLeaves(); ++leaf) {
      total_samples += sharded.shard(s).leaf_sample(leaf).size();
    }
  }
  EXPECT_LE(total_leaves, base.num_leaves);
  EXPECT_GE(total_leaves, base.num_leaves / 2);
  const double budget =
      base.sample_rate * static_cast<double>(data.NumRows());
  EXPECT_NEAR(static_cast<double>(total_samples), budget, 0.25 * budget);
}

}  // namespace
}  // namespace pass
