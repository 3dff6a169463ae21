/// The fused multi-aggregate path: AnswerMulti must produce SUM/COUNT
/// answers bit-identical to per-aggregate Answer calls for every registry
/// engine (the parity contract), derive AVG as the ratio of the fused
/// SUM/COUNT with the exactly computed covariance, stop dropping known
/// population mass at sample-less partial leaves, and — for the sharded
/// engine — cost exactly one synopsis evaluation per shard, with reported
/// diagnostics equal to the scans actually performed.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/synopsis.h"
#include "data/generators.h"
#include "engine/engine_registry.h"
#include "jit/kernel_cache.h"
#include "shard/sharded_synopsis.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectAnswersBitIdentical;
using testing::MustBuild;
using testing::RangeQueryOnDim;

std::vector<Rect> TestPredicates(const Dataset& data) {
  const std::vector<std::pair<double, double>> ranges = {
      {2500.0, 15321.0}, {3137.0, 9421.0}, {0.0, 4000.0}};
  std::vector<Rect> predicates;
  for (const auto& [lo, hi] : ranges) {
    Rect r = Rect::All(data.NumPredDims());
    r.dim(0) = Interval{lo, hi};
    predicates.push_back(r);
  }
  return predicates;
}

Query WithAgg(AggregateType agg, const Rect& predicate) {
  Query q;
  q.agg = agg;
  q.predicate = predicate;
  return q;
}

// ---------------------------------------------------------------------------
// Parity: fused SUM/COUNT == per-aggregate answers, for every engine
// ---------------------------------------------------------------------------

struct ParityCase {
  std::string name;
  size_t num_shards = 1;
};

class MultiAnswerParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(MultiAnswerParity, SumCountBitIdenticalToSeparateCalls) {
  const ParityCase& param = GetParam();
  const Dataset data = MakeIntelLike(8000, 211);
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.num_shards = param.num_shards;
  config.seed = 212;
  auto engine = EngineRegistry::Global().Create(param.name, data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Rect& predicate : TestPredicates(data)) {
    const MultiAnswer m = (*engine)->AnswerMulti(predicate);
    ExpectAnswersBitIdentical(
        m.sum, (*engine)->Answer(WithAgg(AggregateType::kSum, predicate)));
    ExpectAnswersBitIdentical(
        m.count,
        (*engine)->Answer(WithAgg(AggregateType::kCount, predicate)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, MultiAnswerParity,
    ::testing::Values(ParityCase{"exact"}, ParityCase{"uniform"},
                      ParityCase{"stratified"}, ParityCase{"agg_uniform"},
                      ParityCase{"spn"}, ParityCase{"pass"},
                      ParityCase{"ensemble"}, ParityCase{"sharded_pass"},
                      ParityCase{"sharded_pass", 2},
                      ParityCase{"sharded_pass", 4}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return info.param.name +
             (info.param.num_shards > 1
                  ? "_k" + std::to_string(info.param.num_shards)
                  : "");
    });

// ---------------------------------------------------------------------------
// The fused AVG: ratio of the fused SUM/COUNT, delta method, exact cov
// ---------------------------------------------------------------------------

TEST(MultiAnswer, FusedAvgIsRatioOfFusedSumAndCount) {
  const Dataset data = MakeIntelLike(12000, 213);
  BuildOptions options;
  options.num_leaves = 32;
  options.sample_rate = 0.02;
  options.seed = 214;
  const Synopsis s = MustBuild(data, options);
  for (const Rect& predicate : TestPredicates(data)) {
    const MultiAnswer m = s.AnswerMulti(predicate);
    EXPECT_TRUE(m.fused);
    ASSERT_GT(m.count.estimate.value, 0.0);
    const double ratio = m.sum.estimate.value / m.count.estimate.value;
    EXPECT_DOUBLE_EQ(m.avg.estimate.value, ratio);
    const double expected_var =
        (m.sum.estimate.variance - 2.0 * ratio * m.sum_count_cov +
         ratio * ratio * m.count.estimate.variance) /
        (m.count.estimate.value * m.count.estimate.value);
    EXPECT_DOUBLE_EQ(m.avg.estimate.variance, std::max(expected_var, 0.0));
    // The covariance is exact, hence within the Cauchy-Schwarz range of
    // the fused variances — the invariant the deleted recovery hack could
    // not keep.
    EXPECT_LE(std::abs(m.sum_count_cov),
              std::sqrt(m.sum.estimate.variance *
                        m.count.estimate.variance) *
                  (1.0 + 1e-12));
    // Shared diagnostics: one walk, one scan, reported identically.
    EXPECT_EQ(m.avg.sample_rows_scanned, m.sum.sample_rows_scanned);
    EXPECT_EQ(m.avg.nodes_visited, m.sum.nodes_visited);
  }
}

// Documented contract: the fused AVG is always the SUM/COUNT ratio
// estimator. Under AvgMode::kPaperWeights the per-aggregate Answer path
// switches estimator but the fused path must not (a covariance is only
// meaningful for the ratio form, and the sharded merge is ratio-based
// regardless of the per-shard mode).
TEST(MultiAnswer, FusedAvgStaysRatioUnderPaperWeightsMode) {
  const Dataset data = MakeIntelLike(12000, 217);
  BuildOptions options;
  options.num_leaves = 32;
  options.sample_rate = 0.02;
  options.seed = 218;
  options.estimator.avg_mode = AvgMode::kPaperWeights;
  const Synopsis s = MustBuild(data, options);
  const Rect predicate = TestPredicates(data)[1];
  const MultiAnswer m = s.AnswerMulti(predicate);
  ASSERT_GT(m.count.estimate.value, 0.0);
  EXPECT_DOUBLE_EQ(m.avg.estimate.value,
                   m.sum.estimate.value / m.count.estimate.value);
}

TEST(MultiAnswer, SingleShardDelegatesBitIdentically) {
  const Dataset data = MakeIntelLike(10000, 215);
  BuildOptions base;
  base.num_leaves = 32;
  base.sample_rate = 0.02;
  base.seed = 91;
  const Synopsis plain = MustBuild(data, base);
  ShardedBuildOptions options;
  options.shard.num_shards = 1;
  options.base = base;
  Result<ShardedSynopsis> sharded = BuildShardedSynopsis(data, options);
  ASSERT_TRUE(sharded.ok());
  for (const Rect& predicate : TestPredicates(data)) {
    const MultiAnswer a = sharded->AnswerMulti(predicate);
    const MultiAnswer b = plain.AnswerMulti(predicate);
    ExpectAnswersBitIdentical(a.sum, b.sum);
    ExpectAnswersBitIdentical(a.count, b.count);
    ExpectAnswersBitIdentical(a.avg, b.avg);
    EXPECT_EQ(a.sum_count_cov, b.sum_count_cov);
  }
}

// ---------------------------------------------------------------------------
// Regression: AVG no longer drops sample-less partial leaves
// ---------------------------------------------------------------------------

/// Hand-built two-leaf synopsis where leaf B holds known mass (100 rows,
/// values in [15, 25]) but carries an EMPTY stratified sample. The
/// pre-fix AVG ratio path skipped such leaves entirely, silently biasing
/// the estimate toward leaf A; the SUM/COUNT paths always used the
/// bounds-midpoint fallback. AVG must now fall back the same way.
Synopsis BuildEmptySampleLeafSynopsis() {
  PartitionTree tree;

  const auto make_node = [](double lo, double hi) {
    PartitionTree::Node n;
    n.condition = Rect(1);
    n.condition.dim(0) = Interval{lo, hi};
    n.data_bounds = n.condition;
    return n;
  };

  PartitionTree::Node root = make_node(0.0, 20.0);
  PartitionTree::Node leaf_a = make_node(0.0, 10.0);
  PartitionTree::Node leaf_b = make_node(10.0, 20.0);

  // Leaf A: 100 rows alternating 4/6 (mean 5); sampled below.
  leaf_a.stats.count = 100;
  leaf_a.stats.sum = 500.0;
  leaf_a.stats.sum_sq = 50.0 * 16.0 + 50.0 * 36.0;
  leaf_a.stats.min = 4.0;
  leaf_a.stats.max = 6.0;

  // Leaf B: 100 rows alternating 15/25 (mean 20); NO sample. Non-constant,
  // so the zero-variance rule cannot rescue the plain AVG path either.
  leaf_b.stats.count = 100;
  leaf_b.stats.sum = 2000.0;
  leaf_b.stats.sum_sq = 50.0 * 225.0 + 50.0 * 625.0;
  leaf_b.stats.min = 15.0;
  leaf_b.stats.max = 25.0;

  root.stats = leaf_a.stats;
  root.stats.Merge(leaf_b.stats);

  const int32_t root_id = tree.AddNode(root);
  const int32_t a_id = tree.AddNode(leaf_a);
  const int32_t b_id = tree.AddNode(leaf_b);
  tree.AddChild(root_id, a_id);
  tree.AddChild(root_id, b_id);
  tree.SetRoot(root_id);
  tree.FinalizeLeaves();

  // Leaf A's sample: 10 rows at preds 0.5, 1.5, ..., 9.5, aggs 4/6.
  StratifiedSample sample_a(1);
  for (size_t i = 0; i < 10; ++i) {
    sample_a.AddRow({static_cast<double>(i) + 0.5},
                    i % 2 == 0 ? 4.0 : 6.0);
  }
  StratifiedSample sample_b(1);  // empty: the leaf under test

  std::vector<StratifiedSample> samples;
  samples.push_back(std::move(sample_a));
  samples.push_back(std::move(sample_b));
  return Synopsis(std::move(tree), std::move(samples), EstimatorOptions{});
}

TEST(MultiAnswer, AvgFallsBackOnSampleLessPartialLeaf) {
  const Synopsis s = BuildEmptySampleLeafSynopsis();
  const Rect predicate = [&] {
    Rect r(1);
    r.dim(0) = Interval{3.0, 17.0};  // both leaves partially overlapped
    return r;
  }();
  const MultiAnswer m = s.AnswerMulti(predicate);
  ASSERT_EQ(m.sum.partial_leaves, 2u);

  // Leaf A: preds 3.5..9.5 match (7 of 10 sampled rows, matched sum 36),
  // scaled by 100/10. Leaf B midpoint fallbacks: SUM in [0, 2000] -> 1000,
  // COUNT in [0, 100] -> 50.
  EXPECT_DOUBLE_EQ(m.sum.estimate.value, 360.0 + 1000.0);
  EXPECT_DOUBLE_EQ(m.count.estimate.value, 70.0 + 50.0);
  EXPECT_DOUBLE_EQ(m.avg.estimate.value, 1360.0 / 120.0);

  // The pre-fix path answered ~5.14 (leaf A alone): leaf B's 100 known
  // rows with values >= 15 were silently excluded.
  EXPECT_GT(m.avg.estimate.value, 10.0);

  // The fallback's uniform variances must reach the AVG interval.
  EXPECT_GT(m.avg.estimate.variance, 0.0);

  // The plain per-aggregate AVG path applies the identical fallback (no
  // zero-variance nodes here, so its frontier matches the fused one).
  const QueryAnswer plain =
      s.Answer(WithAgg(AggregateType::kAvg, predicate));
  EXPECT_DOUBLE_EQ(plain.estimate.value, m.avg.estimate.value);
  EXPECT_DOUBLE_EQ(plain.estimate.variance, m.avg.estimate.variance);
}

// ---------------------------------------------------------------------------
// Work accounting: sharded AVG costs one evaluation per shard, and says so
// ---------------------------------------------------------------------------

TEST(MultiAnswer, ShardedAvgReportedWorkEqualsActualScans) {
  const Dataset data = MakeIntelLike(15000, 216);
  for (const size_t k : {size_t{2}, size_t{4}}) {
    BuildOptions base;
    base.num_leaves = 32;
    base.sample_rate = 0.02;
    base.seed = 91;
    // The per-engine kernel tier counters record every leaf scan; the
    // shards share this one.
    base.estimator.kernel_cache = std::make_shared<KernelCache>();
    ShardedBuildOptions options;
    options.shard.num_shards = k;
    options.base = base;
    Result<ShardedSynopsis> sharded = BuildShardedSynopsis(data, options);
    ASSERT_TRUE(sharded.ok());
    const auto total_scans = [&sharded] {
      const KernelTierStats stats = sharded->ScanKernelCache()->Stats();
      return stats.fixed_scans + stats.generic_scans;
    };

    const Query avg_q = RangeQueryOnDim(AggregateType::kAvg,
                                        data.NumPredDims(), 0, 3137.0,
                                        9421.0);
    const uint64_t scans_before = total_scans();
    const QueryAnswer avg = sharded->Answer(avg_q);
    const uint64_t scans_performed = total_scans() - scans_before;

    // Exactly one leaf-sample scan per reported partial leaf: one synopsis
    // evaluation per shard, never the pre-fusion triple.
    ASSERT_GT(avg.partial_leaves, 0u);
    EXPECT_EQ(scans_performed, avg.partial_leaves) << "K=" << k;

    // And the reported diagnostics equal one additive walk's worth: the
    // SUM path (one walk per shard by construction) must agree exactly.
    Query sum_q = avg_q;
    sum_q.agg = AggregateType::kSum;
    const QueryAnswer sum = sharded->Answer(sum_q);
    EXPECT_EQ(avg.sample_rows_scanned, sum.sample_rows_scanned);
    EXPECT_EQ(avg.matched_sample_rows, sum.matched_sample_rows);
    EXPECT_EQ(avg.nodes_visited, sum.nodes_visited);
    EXPECT_EQ(avg.partial_leaves, sum.partial_leaves);
    EXPECT_EQ(avg.covered_nodes, sum.covered_nodes);
  }
}

}  // namespace
}  // namespace pass
