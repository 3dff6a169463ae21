#include "core/partition_tree.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "tests/test_util.h"

namespace pass {
namespace {

/// Hand-built 1-D tree over values 0..11 split into 4 leaves of 3 rows,
/// with a 2-level hierarchy. Aggregate value = predicate value.
class SmallTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Leaves: [0,3), [3,6), [6,9), [9,12).
    for (int leaf = 0; leaf < 4; ++leaf) {
      PartitionTree::Node node;
      node.condition = Rect(1);
      node.condition.dim(0) = {leaf * 3.0 - 0.5, leaf * 3.0 + 2.4};
      node.data_bounds = Rect(1);
      node.data_bounds.dim(0) = {leaf * 3.0, leaf * 3.0 + 2.0};
      for (int i = 0; i < 3; ++i) node.stats.Add(leaf * 3.0 + i);
      leaf_ids_[leaf] = tree_.AddNode(std::move(node));
    }
    for (int p = 0; p < 2; ++p) {
      PartitionTree::Node node;
      node.condition = Rect(1);
      node.condition.dim(0) = {p * 6.0 - 0.5, p * 6.0 + 5.4};
      node.data_bounds = Rect(1);
      node.data_bounds.dim(0) = {p * 6.0, p * 6.0 + 5.0};
      node.stats.Merge(tree_.node(leaf_ids_[p * 2]).stats);
      node.stats.Merge(tree_.node(leaf_ids_[p * 2 + 1]).stats);
      mid_ids_[p] = tree_.AddNode(std::move(node));
      tree_.AddChild(mid_ids_[p], leaf_ids_[p * 2]);
      tree_.AddChild(mid_ids_[p], leaf_ids_[p * 2 + 1]);
    }
    PartitionTree::Node root;
    root.condition = Rect::All(1);
    root.data_bounds = Rect(1);
    root.data_bounds.dim(0) = {0.0, 11.0};
    root.stats.Merge(tree_.node(mid_ids_[0]).stats);
    root.stats.Merge(tree_.node(mid_ids_[1]).stats);
    root_ = tree_.AddNode(std::move(root));
    tree_.AddChild(root_, mid_ids_[0]);
    tree_.AddChild(root_, mid_ids_[1]);
    tree_.SetRoot(root_);
    tree_.FinalizeLeaves();
  }

  Rect Range(double lo, double hi) {
    Rect r(1);
    r.dim(0) = {lo, hi};
    return r;
  }

  PartitionTree tree_;
  int32_t leaf_ids_[4];
  int32_t mid_ids_[2];
  int32_t root_;
};

TEST_F(SmallTreeTest, StructureBasics) {
  EXPECT_EQ(tree_.NumNodes(), 7u);
  EXPECT_EQ(tree_.NumLeaves(), 4u);
  EXPECT_EQ(tree_.Height(), 2u);
  EXPECT_TRUE(tree_.ValidateInvariants().ok())
      << tree_.ValidateInvariants().ToString();
}

TEST_F(SmallTreeTest, LeafIdsAreDenseAndDfsOrdered) {
  for (size_t i = 0; i < 4; ++i) {
    const int32_t node_id = tree_.leaves()[i];
    EXPECT_EQ(tree_.node(node_id).leaf_id, static_cast<int32_t>(i));
  }
  // DFS order matches left-to-right construction order here.
  EXPECT_EQ(tree_.leaves()[0], leaf_ids_[0]);
  EXPECT_EQ(tree_.leaves()[3], leaf_ids_[3]);
}

TEST_F(SmallTreeTest, McfAlignedQueryIsFullyCovered) {
  // [0, 5] covers exactly the first two leaves -> one covered mid node.
  const auto f = tree_.ComputeMcf(Range(0.0, 5.0));
  EXPECT_EQ(f.partial.size(), 0u);
  ASSERT_EQ(f.covered.size(), 1u);
  EXPECT_EQ(f.covered[0], mid_ids_[0]);
}

TEST_F(SmallTreeTest, McfDisjointQueryTouchesNothing) {
  const auto f = tree_.ComputeMcf(Range(100.0, 200.0));
  EXPECT_TRUE(f.covered.empty());
  EXPECT_TRUE(f.partial.empty());
  EXPECT_EQ(f.nodes_visited, 1u);  // root rejects immediately
}

TEST_F(SmallTreeTest, McfPartialOverlapReturnsLeaves) {
  // [1, 7] partially covers leaf 0 ([0,2]) and leaf 2 ([6,8]), fully
  // covers leaf 1 ([3,5]).
  const auto f = tree_.ComputeMcf(Range(1.0, 7.0));
  ASSERT_EQ(f.covered.size(), 1u);
  EXPECT_EQ(f.covered[0], leaf_ids_[1]);
  ASSERT_EQ(f.partial.size(), 2u);
  EXPECT_EQ(f.partial[0], leaf_ids_[0]);
  EXPECT_EQ(f.partial[1], leaf_ids_[2]);
}

TEST_F(SmallTreeTest, McfWholeDomainIsRootOnly) {
  const auto f = tree_.ComputeMcf(Range(-10.0, 100.0));
  ASSERT_EQ(f.covered.size(), 1u);
  EXPECT_EQ(f.covered[0], root_);
  EXPECT_EQ(f.nodes_visited, 1u);
}

TEST_F(SmallTreeTest, ClassifySingleNodes) {
  EXPECT_EQ(tree_.Classify(leaf_ids_[0], Range(0.0, 2.0)),
            PartitionTree::Coverage::kCover);
  EXPECT_EQ(tree_.Classify(leaf_ids_[0], Range(1.0, 2.0)),
            PartitionTree::Coverage::kPartial);
  EXPECT_EQ(tree_.Classify(leaf_ids_[0], Range(50.0, 60.0)),
            PartitionTree::Coverage::kNone);
}

TEST_F(SmallTreeTest, ZeroVarianceRuleRoutesConstantNodes) {
  // Rebuild leaf 0 with constant values.
  PartitionTree::Node& leaf = tree_.mutable_node(leaf_ids_[0]);
  leaf.stats = AggregateStats();
  for (int i = 0; i < 3; ++i) leaf.stats.Add(7.0);
  // Partial overlap of leaf 0 only.
  const auto without = tree_.ComputeMcf(Range(0.5, 1.5), false);
  ASSERT_EQ(without.partial.size(), 1u);
  EXPECT_TRUE(without.zero_var.empty());
  const auto with = tree_.ComputeMcf(Range(0.5, 1.5), true);
  EXPECT_TRUE(with.partial.empty());
  ASSERT_EQ(with.zero_var.size(), 1u);
  EXPECT_EQ(with.zero_var[0], leaf_ids_[0]);
}

TEST_F(SmallTreeTest, RouteToLeafByCondition) {
  EXPECT_EQ(tree_.RouteToLeaf({1.0}), leaf_ids_[0]);
  EXPECT_EQ(tree_.RouteToLeaf({4.0}), leaf_ids_[1]);
  EXPECT_EQ(tree_.RouteToLeaf({11.0}), leaf_ids_[3]);
}

// The leaves leave gaps between them under an unbounded root, so the tree
// keeps the walk, which refuses a point in a gap or past the last leaf.
TEST_F(SmallTreeTest, GappedLeavesKeepTheWalk) {
  EXPECT_EQ(tree_.cut_dim(), -1);
  EXPECT_EQ(tree_.RouteToLeaf({2.45}), -1);
  EXPECT_EQ(tree_.RouteToLeaf({-1.0}), -1);
  EXPECT_EQ(tree_.RouteToLeaf({100.0}), -1);
}

TEST_F(SmallTreeTest, ValidateCatchesBrokenAggregates) {
  tree_.mutable_node(mid_ids_[0]).stats.sum += 100.0;
  EXPECT_FALSE(tree_.ValidateInvariants().ok());
}

TEST_F(SmallTreeTest, ValidateCatchesOverlappingSiblings) {
  tree_.mutable_node(leaf_ids_[1]).condition.dim(0).lo = 0.0;
  EXPECT_FALSE(tree_.ValidateInvariants().ok());
}

TEST(PartitionTreeBuilt, BuilderTreesSatisfyInvariants) {
  const Dataset data = MakeUniform(5000, 77);
  for (const auto strategy :
       {PartitionStrategy::kEqualDepth, PartitionStrategy::kEqualWidth,
        PartitionStrategy::kAdp}) {
    BuildOptions options;
    options.strategy = strategy;
    options.num_leaves = 16;
    options.opt_sample_size = 1000;
    const Synopsis s = testing::MustBuild(data, options);
    EXPECT_TRUE(s.tree().ValidateInvariants().ok())
        << StrategyName(strategy) << ": "
        << s.tree().ValidateInvariants().ToString();
    EXPECT_GE(s.tree().NumLeaves(), 2u);
    EXPECT_LE(s.tree().NumLeaves(), 16u);
  }
}

// ---------------------------------------------------------------------------
// Routing: the leaf-cut index against the walk
// ---------------------------------------------------------------------------

/// The reference router: from the root down, the first child whose
/// condition contains the point; -1 when the root or no child does.
int32_t WalkToLeaf(const PartitionTree& tree,
                   const std::vector<double>& point) {
  int32_t id = tree.root();
  if (id < 0 || !tree.node(id).condition.ContainsPoint(point)) return -1;
  while (!tree.node(id).IsLeaf()) {
    int32_t next = -1;
    for (const int32_t child : tree.node(id).children) {
      if (tree.node(child).condition.ContainsPoint(point)) {
        next = child;
        break;
      }
    }
    if (next < 0) return -1;
    id = next;
  }
  return id;
}

/// Points on and around every cut of `tree`: on every dim, each leaf
/// condition's lo and hi and their nextafter neighbours both ways (the
/// other coordinates at the leaf's data lo); then -0.0, +0.0, -inf, +inf,
/// NaN and a point on either side of the data range (the other coordinates
/// at the root's data lo), so NaN lands in every dim, the cut dim or not.
std::vector<std::vector<double>> RoutingProbes(const PartitionTree& tree) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Rect& root = tree.node(tree.root()).data_bounds;
  const size_t d = root.NumDims();
  std::vector<std::vector<double>> probes;
  const auto add = [&](const Rect& base, size_t dim, double x) {
    std::vector<double> point(d);
    for (size_t i = 0; i < d; ++i) point[i] = base.dim(i).lo;
    point[dim] = x;
    probes.push_back(std::move(point));
  };
  for (const int32_t leaf : tree.leaves()) {
    const PartitionTree::Node& n = tree.node(leaf);
    for (size_t dim = 0; dim < d; ++dim) {
      for (const double edge :
           {n.condition.dim(dim).lo, n.condition.dim(dim).hi}) {
        add(n.data_bounds, dim, std::nextafter(edge, -kInf));
        add(n.data_bounds, dim, edge);
        add(n.data_bounds, dim, std::nextafter(edge, kInf));
      }
    }
  }
  for (size_t dim = 0; dim < d; ++dim) {
    const Interval& range = root.dim(dim);
    const double span = range.hi - range.lo + 1.0;
    for (const double x :
         {-0.0, 0.0, -kInf, kInf, std::numeric_limits<double>::quiet_NaN(),
          range.lo - span, range.hi + span}) {
      add(root, dim, x);
    }
  }
  return probes;
}

/// Routes every probe and every 7th row of `data` both ways and expects
/// the same leaf; reports the first few disagreements.
void ExpectRoutesLikeTheWalk(const PartitionTree& tree, const Dataset& data,
                             const std::string& what) {
  std::vector<std::vector<double>> points = RoutingProbes(tree);
  for (size_t row = 0; row < data.NumRows(); row += 7) {
    std::vector<double> point(data.NumPredDims());
    for (size_t dim = 0; dim < point.size(); ++dim) {
      point[dim] = data.pred(dim, row);
    }
    points.push_back(std::move(point));
  }
  size_t mismatches = 0;
  for (const std::vector<double>& point : points) {
    const int32_t want = WalkToLeaf(tree, point);
    const int32_t got = tree.RouteToLeaf(point);
    if (got != want && ++mismatches <= 5) {
      std::string coords;
      for (const double x : point) coords += " " + std::to_string(x);
      ADD_FAILURE() << what << ": point" << coords << " routed to " << got
                    << ", the walk to " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << ", " << points.size() << " points";
}

// Every 1-D strategy, at fanout 2 and 3, over 1-D data and over dim 1 of
// 3-D data, builds the shape whose leaf cuts FinalizeLeaves indexes, and
// the binary search over them routes every point as the walk does.
TEST(PartitionTreeRouting, OneDimBuildsIndexTheirCutsAndRouteLikeTheWalk) {
  const Dataset uniform = MakeUniform(3000, 79);
  const Dataset taxi3 = MakeTaxiLike(3000, 80).WithPredDims(3);
  struct Input {
    const Dataset* data;
    size_t dim;
  };
  for (const Input input : {Input{&uniform, 0}, Input{&taxi3, 1}}) {
    for (const auto strategy :
         {PartitionStrategy::kEqualDepth, PartitionStrategy::kEqualWidth,
          PartitionStrategy::kAdp, PartitionStrategy::kDpExact}) {
      for (const size_t fanout : {2u, 3u}) {
        BuildOptions options;
        options.strategy = strategy;
        options.num_leaves = 13;
        options.fanout = fanout;
        options.opt_sample_size = 250;
        options.partition_dims = {input.dim};
        const Synopsis s = testing::MustBuild(*input.data, options);
        std::string what = StrategyName(strategy);
        what += " fanout " + std::to_string(fanout);
        what += " dim " + std::to_string(input.dim);
        EXPECT_EQ(s.tree().cut_dim(), static_cast<int32_t>(input.dim))
            << what;
        EXPECT_GE(s.tree().NumLeaves(), 2u) << what;
        ExpectRoutesLikeTheWalk(s.tree(), *input.data, what);
      }
    }
  }
}

// kd builds tile no single dim, so they keep the walk; greedy and
// breadth-first trees route every point as it does, empty orthants
// included.
TEST(PartitionTreeRouting, KdBuildsKeepTheWalk) {
  const Dataset taxi3 = MakeTaxiLike(3000, 81).WithPredDims(3);
  for (const auto strategy :
       {PartitionStrategy::kKdGreedy, PartitionStrategy::kKdBreadthFirst}) {
    BuildOptions options;
    options.strategy = strategy;
    options.num_leaves = 32;
    const Synopsis s = testing::MustBuild(taxi3, options);
    EXPECT_EQ(s.tree().cut_dim(), -1) << StrategyName(strategy);
    ExpectRoutesLikeTheWalk(s.tree(), taxi3, StrategyName(strategy));
  }
}

// A condition changed after FinalizeLeaves needs another call to it: a gap
// opened between two leaves of a 1-D tree drops the index, and the walk
// then refuses a point in the gap.
TEST(PartitionTreeRouting, FinalizeLeavesAgainAfterAConditionChanges) {
  const Dataset data = MakeUniform(2000, 82);
  BuildOptions options;
  options.num_leaves = 8;
  options.strategy = PartitionStrategy::kEqualDepth;
  PartitionTree tree = testing::MustBuild(data, options).tree();
  ASSERT_EQ(tree.cut_dim(), 0);
  const int32_t leaf = tree.leaves()[3];
  Interval& cut = tree.mutable_node(leaf).condition.dim(0);
  const double gap = cut.lo;
  cut.lo = std::nextafter(gap, std::numeric_limits<double>::infinity());
  tree.FinalizeLeaves();
  EXPECT_EQ(tree.cut_dim(), -1);
  EXPECT_EQ(tree.RouteToLeaf({gap}), -1);
  EXPECT_EQ(tree.RouteToLeaf({cut.lo}), leaf);
  ExpectRoutesLikeTheWalk(tree, data, "gapped equal-depth");
}

// The leaves alone do not decide: an internal node narrower than the span
// of its leaves makes the walk refuse points its leaves hold, so such a
// tree keeps the walk too.
TEST(PartitionTreeRouting, InternalConditionsMustSpanTheirLeaves) {
  const Dataset data = MakeUniform(2000, 83);
  BuildOptions options;
  options.num_leaves = 8;
  options.strategy = PartitionStrategy::kEqualDepth;
  PartitionTree tree = testing::MustBuild(data, options).tree();
  const int32_t leaf = tree.leaves()[1];
  const int32_t parent = tree.node(leaf).parent;
  ASSERT_EQ(tree.node(parent).children.back(), leaf);
  const double edge = tree.node(leaf).condition.dim(0).hi;
  tree.mutable_node(parent).condition.dim(0).hi =
      std::nextafter(edge, -std::numeric_limits<double>::infinity());
  tree.FinalizeLeaves();
  EXPECT_EQ(tree.cut_dim(), -1);
  EXPECT_EQ(tree.RouteToLeaf({edge}), -1);
  ExpectRoutesLikeTheWalk(tree, data, "narrowed internal node");
}

TEST(PartitionTreeBuilt, McfVisitBoundLogarithmic) {
  // For a selective query overlapping gamma leaves, visited nodes should be
  // O(gamma * log B) (Section 3.2).
  const Dataset data = MakeUniform(20000, 78);
  BuildOptions options;
  options.strategy = PartitionStrategy::kEqualDepth;
  options.num_leaves = 128;
  const Synopsis s = testing::MustBuild(data, options);
  Rect narrow(1);
  narrow.dim(0) = {0.41, 0.42};  // ~2 leaves wide
  const auto f = s.tree().ComputeMcf(narrow);
  const double log_b = std::log2(static_cast<double>(s.tree().NumLeaves()));
  const double gamma = static_cast<double>(f.partial.size() + 1);
  EXPECT_LE(f.nodes_visited, static_cast<uint32_t>(4.0 * gamma * log_b + 8));
}

}  // namespace
}  // namespace pass
