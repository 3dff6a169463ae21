#include "core/synopsis.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "data/generators.h"
#include "data/workload.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::MustBuild;
using testing::RangeQueryOnDim;

/// Expects `now` to hold what `was` held, bit for bit: every node's stats
/// and data bounds, and every leaf sample's rows.
void ExpectSameNodesAndSamples(const Synopsis& now, const Synopsis& was) {
  ASSERT_EQ(now.tree().NumNodes(), was.tree().NumNodes());
  for (size_t id = 0; id < now.tree().NumNodes(); ++id) {
    const PartitionTree::Node& a = now.tree().node(static_cast<int32_t>(id));
    const PartitionTree::Node& b = was.tree().node(static_cast<int32_t>(id));
    EXPECT_EQ(a.stats.count, b.stats.count) << "node " << id;
    EXPECT_EQ(testing::Bits(a.stats.sum), testing::Bits(b.stats.sum));
    EXPECT_EQ(testing::Bits(a.stats.sum_sq), testing::Bits(b.stats.sum_sq));
    EXPECT_EQ(a.stats.min, b.stats.min);
    EXPECT_EQ(a.stats.max, b.stats.max);
    EXPECT_EQ(a.data_bounds, b.data_bounds) << "node " << id;
  }
  ASSERT_EQ(now.NumLeaves(), was.NumLeaves());
  for (size_t leaf = 0; leaf < now.NumLeaves(); ++leaf) {
    const StratifiedSample& a = now.leaf_sample(leaf);
    const StratifiedSample& b = was.leaf_sample(leaf);
    ASSERT_EQ(a.size(), b.size()) << "leaf " << leaf;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(testing::Bits(a.agg(i)), testing::Bits(b.agg(i)));
      for (size_t dim = 0; dim < a.NumDims(); ++dim) {
        EXPECT_EQ(testing::Bits(a.pred(dim, i)), testing::Bits(b.pred(dim, i)));
      }
    }
  }
}

TEST(SynopsisBuilder, RespectsLeafBudget) {
  const Dataset data = MakeUniform(10000, 50);
  for (const size_t k : {1u, 4u, 64u, 256u}) {
    BuildOptions options;
    options.num_leaves = k;
    const Synopsis s = MustBuild(data, options);
    EXPECT_LE(s.tree().NumLeaves(), std::max<size_t>(k, 1));
    EXPECT_GE(s.tree().NumLeaves(), 1u);
  }
}

TEST(SynopsisBuilder, SampleBudgetHonoredApproximately) {
  const Dataset data = MakeUniform(50000, 51);
  BuildOptions options;
  options.num_leaves = 32;
  options.sample_budget = 1000;
  options.min_leaf_sample = 2;
  const Synopsis s = MustBuild(data, options);
  size_t total = 0;
  for (size_t i = 0; i < s.NumLeaves(); ++i) {
    total += s.leaf_sample(i).size();
  }
  EXPECT_NEAR(static_cast<double>(total), 1000.0, 150.0);
}

TEST(SynopsisBuilder, AllocationPoliciesDiffer) {
  // Skewed leaf sizes: equal allocation gives every leaf the same sample,
  // proportional follows leaf size.
  const Dataset data = MakeInstacartLike(40000, 52);
  BuildOptions options;
  options.num_leaves = 16;
  options.sample_budget = 800;
  options.allocation = SampleAllocation::kEqual;
  const Synopsis equal = MustBuild(data, options);
  options.allocation = SampleAllocation::kProportional;
  const Synopsis prop = MustBuild(data, options);

  size_t equal_min = SIZE_MAX;
  size_t equal_max = 0;
  for (size_t i = 0; i < equal.NumLeaves(); ++i) {
    equal_min = std::min(equal_min, equal.leaf_sample(i).size());
    equal_max = std::max(equal_max, equal.leaf_sample(i).size());
  }
  size_t prop_min = SIZE_MAX;
  size_t prop_max = 0;
  for (size_t i = 0; i < prop.NumLeaves(); ++i) {
    prop_min = std::min(prop_min, prop.leaf_sample(i).size());
    prop_max = std::max(prop_max, prop.leaf_sample(i).size());
  }
  // Equal-depth partitioning of heavily duplicated ids still yields uneven
  // leaves, so proportional spreads harder than equal.
  EXPECT_GE(prop_max - prop_min, equal_max - equal_min);
}

TEST(SynopsisBuilder, NeymanFavorsHighVarianceLeaves) {
  const Dataset data = MakeAdversarial(20000, 53);
  BuildOptions options;
  options.num_leaves = 8;
  options.strategy = PartitionStrategy::kEqualDepth;
  options.sample_budget = 400;
  options.min_leaf_sample = 2;
  options.allocation = SampleAllocation::kNeyman;
  const Synopsis s = MustBuild(data, options);
  // The zero region (leading leaves) should get the minimum; the noisy
  // tail leaf should get nearly everything.
  size_t first_leaf = s.leaf_sample(0).size();
  size_t last_leaf = s.leaf_sample(s.NumLeaves() - 1).size();
  EXPECT_LE(first_leaf, 4u);
  EXPECT_GE(last_leaf, 100u);
}

TEST(SynopsisBuilder, InvalidOptionsRejected) {
  const Dataset data = MakeUniform(100, 54);
  BuildOptions options;
  options.num_leaves = 0;
  EXPECT_FALSE(BuildSynopsis(data, options).ok());
  options.num_leaves = 4;
  options.sample_rate = 1.5;
  EXPECT_FALSE(BuildSynopsis(data, options).ok());
  options.sample_rate = 0.01;
  options.partition_dims = {3};
  EXPECT_FALSE(BuildSynopsis(data, options).ok());
}

TEST(SynopsisBuilder, EmptyDatasetRejected) {
  Dataset data("v", {"x"});
  BuildOptions options;
  EXPECT_FALSE(BuildSynopsis(data, options).ok());
}

TEST(Synopsis, StorageBytesTracksSamplesAndNodes) {
  const Dataset data = MakeUniform(20000, 55);
  BuildOptions small;
  small.num_leaves = 8;
  small.sample_rate = 0.005;
  BuildOptions big = small;
  big.sample_rate = 0.05;
  const Synopsis s1 = MustBuild(data, small);
  const Synopsis s2 = MustBuild(data, big);
  EXPECT_GT(s2.StorageBytes(), s1.StorageBytes());
  EXPECT_GT(s1.StorageBytes(), 0u);
}

TEST(Synopsis, NameAndCosts) {
  const Dataset data = MakeUniform(5000, 56);
  BuildOptions options;
  options.num_leaves = 8;
  const Synopsis s = MustBuild(data, options);
  EXPECT_NE(s.Name().find("PASS"), std::string::npos);
  EXPECT_GT(s.Costs().build_seconds, 0.0);
  EXPECT_EQ(s.Costs().storage_bytes, s.StorageBytes());
}

TEST(Synopsis, KdPathBuildsForMultiDim) {
  const Dataset data = MakeTaxiLike(10000, 57).WithPredDims(3);
  BuildOptions options;
  options.num_leaves = 64;
  options.strategy = PartitionStrategy::kAdp;  // auto-routes to kd greedy
  const Synopsis s = MustBuild(data, options);
  EXPECT_TRUE(s.tree().ValidateInvariants().ok());
  EXPECT_GE(s.tree().NumLeaves(), 32u);

  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 40;
  wl.template_dims = {0, 1, 2};
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = queries;
  for (const Query& q : queries) {
    const ExactResult truth = ExactAnswer(data, q);
    if (truth.matched == 0 || truth.value == 0.0) continue;
    const QueryAnswer answer = s.Answer(q);
    ASSERT_TRUE(answer.hard_lb && answer.hard_ub);
    EXPECT_GE(truth.value, *answer.hard_lb - 1e-6 * std::abs(truth.value));
    EXPECT_LE(truth.value, *answer.hard_ub + 1e-6 * std::abs(truth.value));
  }
}

// ---------------------------------------------------------------------------
// Dynamic updates (Section 4.5)
// ---------------------------------------------------------------------------

TEST(SynopsisUpdates, InsertPatchesAggregatesUpTheTree) {
  const Dataset data = MakeUniform(5000, 58);
  BuildOptions options;
  options.num_leaves = 16;
  Synopsis s = MustBuild(data, options);
  const uint64_t before = s.NumRows();
  const double sum_before = s.tree().node(s.tree().root()).stats.sum;
  ASSERT_TRUE(s.Insert({0.5}, 123.0));
  EXPECT_EQ(s.NumRows(), before + 1);
  EXPECT_NEAR(s.tree().node(s.tree().root()).stats.sum, sum_before + 123.0,
              1e-9);
  EXPECT_TRUE(s.tree().ValidateInvariants().ok())
      << s.tree().ValidateInvariants().ToString();
}

TEST(SynopsisUpdates, InsertOutsideDataRangeStillRoutes) {
  const Dataset data = MakeUniform(2000, 59);
  BuildOptions options;
  options.num_leaves = 8;
  Synopsis s = MustBuild(data, options);
  // Builders widen the edge conditions to +-inf.
  EXPECT_TRUE(s.Insert({-100.0}, 1.0));
  EXPECT_TRUE(s.Insert({+100.0}, 2.0));
  EXPECT_TRUE(s.tree().ValidateInvariants().ok());
}

TEST(SynopsisUpdates, InsertedRowsInfluenceAnswers) {
  const Dataset data = MakeUniform(10000, 60, 1.0, 1.0);  // constant 1.0
  BuildOptions options;
  options.num_leaves = 8;
  options.strategy = PartitionStrategy::kEqualDepth;
  Synopsis s = MustBuild(data, options);
  // Pump mass into one spot and expect COUNT over the whole domain exact.
  for (int i = 0; i < 500; ++i) s.Insert({0.5}, 1.0);
  const Query q = RangeQueryOnDim(AggregateType::kCount, 1, 0, -1e30, 1e30);
  EXPECT_DOUBLE_EQ(s.Answer(q).estimate.value, 10500.0);
}

TEST(SynopsisUpdates, ReservoirKeepsSampleSizeBounded) {
  const Dataset data = MakeUniform(10000, 61);
  BuildOptions options;
  options.num_leaves = 4;
  options.sample_budget = 200;
  Synopsis s = MustBuild(data, options);
  std::vector<size_t> before(s.NumLeaves());
  for (size_t i = 0; i < s.NumLeaves(); ++i) {
    before[i] = s.leaf_sample(i).size();
  }
  Rng rng(62);
  for (int i = 0; i < 20000; ++i) {
    s.Insert({rng.UniformDouble()}, rng.UniformDouble());
  }
  for (size_t i = 0; i < s.NumLeaves(); ++i) {
    EXPECT_EQ(s.leaf_sample(i).size(), before[i]);
  }
}

TEST(SynopsisUpdates, ReservoirAdmitsNewRowsOverTime) {
  const Dataset data = MakeUniform(1000, 63);
  BuildOptions options;
  options.num_leaves = 2;
  options.sample_budget = 100;
  Synopsis s = MustBuild(data, options);
  Rng rng(64);
  // Insert rows with a sentinel aggregate value; some must enter samples.
  for (int i = 0; i < 5000; ++i) s.Insert({rng.UniformDouble()}, -777.0);
  size_t sentinels = 0;
  for (size_t leaf = 0; leaf < s.NumLeaves(); ++leaf) {
    for (size_t i = 0; i < s.leaf_sample(leaf).size(); ++i) {
      if (s.leaf_sample(leaf).agg(i) == -777.0) ++sentinels;
    }
  }
  EXPECT_GT(sentinels, 50u);  // ~5/6 of the stream is sentinel rows
}

TEST(SynopsisUpdates, DeletePatchesCountsAndSums) {
  const Dataset data = MakeUniform(5000, 65);
  BuildOptions options;
  options.num_leaves = 8;
  Synopsis s = MustBuild(data, options);
  const double x = data.pred(0, 42);
  const double a = data.agg(42);
  const uint64_t before = s.NumRows();
  const double sum_before = s.tree().node(s.tree().root()).stats.sum;
  ASSERT_TRUE(s.Delete({x}, a));
  EXPECT_EQ(s.NumRows(), before - 1);
  EXPECT_NEAR(s.tree().node(s.tree().root()).stats.sum, sum_before - a, 1e-6);
}

// A row must carry one value per predicate dimension: a short row would
// be routed by reading past it, and a long one written past the node
// rectangles and the sample's columns.
TEST(SynopsisUpdates, RowsOfTheWrongArityAreRejected) {
  const Dataset data = MakeTaxiLike(4000, 69).WithPredDims(3);
  BuildOptions options;
  options.num_leaves = 16;
  Synopsis s = MustBuild(data, options);
  const uint64_t before = s.NumRows();
  EXPECT_FALSE(s.Insert({0.5}, 1.0));
  EXPECT_FALSE(s.Insert({0.5, 0.5, 0.5, 0.5}, 1.0));
  EXPECT_FALSE(s.Delete({0.5}, 1.0));
  EXPECT_EQ(s.NumRows(), before);
  EXPECT_TRUE(s.tree().ValidateInvariants().ok());
}

// A kd split drops the orthants no row fell in, so a kd tree's leaves need
// not cover its root. Over pickup and dropoff day, no trip is dropped off
// before it was picked up: a row with pickup day 30 and dropoff day 0 lies
// in no leaf, and Insert and Delete refuse it without touching the
// synopsis.
TEST(SynopsisUpdates, InsertIntoAnEmptyKdOrthantIsRefusedAndChangesNothing) {
  const Dataset data = MakeTaxiLike(200'000);
  BuildOptions options;
  options.partition_dims = {1, 3};  // pickup_date, dropoff_date
  Synopsis s = MustBuild(data, options);
  const Synopsis before = s;
  EXPECT_FALSE(s.Insert({40000.0, 30.0, 5.0, 0.0, 1000.0}, 2.0));
  EXPECT_FALSE(s.Delete({40000.0, 30.0, 5.0, 0.0, 1000.0}, 2.0));
  ExpectSameNodesAndSamples(s, before);
}

// No condition contains a NaN coordinate, in the cut dim of a 1-D tree or
// in any dim of a kd tree: Insert and Delete refuse the row and change
// nothing.
TEST(SynopsisUpdates, NanCoordinatesAreRefusedAndChangeNothing) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  BuildOptions options;
  options.num_leaves = 16;
  Synopsis line = MustBuild(MakeUniform(5000, 71), options);
  const Synopsis line_before = line;
  EXPECT_FALSE(line.Insert({kNaN}, 1.0));
  EXPECT_FALSE(line.Delete({kNaN}, 1.0));
  ExpectSameNodesAndSamples(line, line_before);

  Synopsis kd = MustBuild(MakeTaxiLike(4000, 72).WithPredDims(3), options);
  const Synopsis kd_before = kd;
  for (size_t dim = 0; dim < 3; ++dim) {
    std::vector<double> row = {10.0, 10.0, 10.0};
    row[dim] = kNaN;
    EXPECT_FALSE(kd.Insert(row, 1.0)) << "dim " << dim;
    EXPECT_FALSE(kd.Delete(row, 1.0)) << "dim " << dim;
  }
  ExpectSameNodesAndSamples(kd, kd_before);
}

// A NaN or infinite aggregate would turn the sums of its leaf and of every
// ancestor non-finite for good, and with them every SUM and its hard
// bounds; a later Delete of an inf leaves NaN. Insert and Delete refuse
// it and change nothing.
TEST(SynopsisUpdates, NonFiniteAggregatesAreRefusedAndChangeNothing) {
  const Dataset data = MakeUniform(5000, 70);
  BuildOptions options;
  options.num_leaves = 16;
  Synopsis s = MustBuild(data, options);
  const Synopsis before = s;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double agg :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    EXPECT_FALSE(s.Insert({0.5}, agg)) << agg;
    EXPECT_FALSE(s.Delete({0.5}, agg)) << agg;
    EXPECT_FALSE(s.Delete({data.pred(0, 7)}, agg)) << agg;
  }
  ExpectSameNodesAndSamples(s, before);
  const QueryAnswer whole =
      s.Answer(RangeQueryOnDim(AggregateType::kSum, 1, 0, -kInf, kInf));
  EXPECT_TRUE(std::isfinite(whole.estimate.value));
  ASSERT_TRUE(whole.hard_ub.has_value());
  EXPECT_TRUE(std::isfinite(*whole.hard_ub));
  // A finite aggregate on the same point is still taken.
  EXPECT_TRUE(s.Insert({0.5}, 1.0));
}

TEST(SynopsisUpdates, HardBoundsSurviveUpdates) {
  Dataset data = MakeIntelLike(20000, 66);
  BuildOptions options;
  options.num_leaves = 32;
  Synopsis s = MustBuild(data, options);
  Rng rng(67);
  // Mirror updates into a shadow dataset for ground truth.
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.UniformDouble(0.0, 20000.0);
    const double a = rng.UniformDouble(0.0, 500.0);
    s.Insert({x}, a);
    data.AddRow({x}, a);
  }
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 60;
  wl.seed = 68;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const ExactResult truth = ExactAnswer(data, q);
    if (truth.matched == 0) continue;
    const QueryAnswer answer = s.Answer(q);
    ASSERT_TRUE(answer.hard_lb && answer.hard_ub);
    const double slack = 1e-9 * (1.0 + std::abs(truth.value));
    EXPECT_GE(truth.value, *answer.hard_lb - slack);
    EXPECT_LE(truth.value, *answer.hard_ub + slack);
  }
}

}  // namespace
}  // namespace pass
