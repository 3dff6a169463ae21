#include "geom/kd_split.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>
#include "common/rng.h"

namespace pass {
namespace {

/// Random columns plus a row store over them. The store starts in a
/// shuffled row order, so a split that reads through row ids, or one that
/// does not keep the parent's order, shows up.
struct SplitFixture {
  std::vector<std::vector<double>> cols;
  std::vector<double> agg;
  std::vector<size_t> all_dims;
  KdRowStore rows;

  SplitFixture(size_t d, size_t n, uint64_t seed) {
    Rng rng(seed);
    cols.resize(d);
    for (auto& col : cols) {
      col.resize(n);
      for (auto& v : col) v = rng.UniformDouble(0.0, 100.0);
    }
    agg.resize(n);
    for (auto& a : agg) a = rng.LogNormal(1.0, 0.6);
    all_dims.resize(d);
    std::iota(all_dims.begin(), all_dims.end(), size_t{0});

    rows.ids.resize(n);
    std::iota(rows.ids.begin(), rows.ids.end(), 0u);
    for (size_t i = n; i > 1; --i) {
      std::swap(rows.ids[i - 1], rows.ids[rng.Below(i)]);
    }
    rows.pred.assign(d, std::vector<double>(n));
    rows.agg.resize(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t dim = 0; dim < d; ++dim) {
        rows.pred[dim][i] = cols[dim][rows.ids[i]];
      }
      rows.agg[i] = agg[rows.ids[i]];
    }
  }

  std::vector<double> Point(uint32_t row) const {
    std::vector<double> p;
    p.reserve(cols.size());
    for (const auto& col : cols) p.push_back(col[row]);
    return p;
  }
};

TEST(MultiSplit, TwoDimsProducesUpToFourDisjointChildren) {
  SplitFixture f(2, 200, 21);
  const auto children = MultiSplit(f.all_dims, 0, 200, Rect::All(2), &f.rows);
  ASSERT_GE(children.size(), 2u);
  ASSERT_LE(children.size(), 4u);
  // Ranges tile [0, 200).
  size_t cursor = 0;
  for (const auto& c : children) {
    EXPECT_EQ(c.begin, cursor);
    EXPECT_GT(c.end, c.begin);
    cursor = c.end;
  }
  EXPECT_EQ(cursor, 200u);
  // Conditions are pairwise disjoint and rows land inside their condition.
  for (size_t i = 0; i < children.size(); ++i) {
    for (size_t j = i + 1; j < children.size(); ++j) {
      EXPECT_FALSE(children[i].condition.Intersects(children[j].condition));
    }
    for (size_t p = children[i].begin; p < children[i].end; ++p) {
      EXPECT_TRUE(children[i].condition.ContainsPoint(f.Point(f.rows.ids[p])));
    }
  }
}

TEST(MultiSplit, IdsArePreservedAsMultiset) {
  SplitFixture f(3, 100, 22);
  std::vector<uint32_t> before = f.rows.ids;
  const auto children = MultiSplit(f.all_dims, 0, 100, Rect::All(3), &f.rows);
  ASSERT_GE(children.size(), 2u);
  std::vector<uint32_t> after = f.rows.ids;
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

// Within each child, rows keep their order from the parent range. Leaf
// sampling draws by offset into a leaf's range, so a reorder here would
// change every sample the build draws.
TEST(MultiSplit, SplitIsStable) {
  SplitFixture f(3, 500, 26);
  const std::vector<uint32_t> parent = f.rows.ids;
  std::vector<size_t> parent_pos(parent.size());
  for (size_t i = 0; i < parent.size(); ++i) parent_pos[parent[i]] = i;

  const auto children = MultiSplit(f.all_dims, 0, 500, Rect::All(3), &f.rows);
  ASSERT_GE(children.size(), 2u);
  for (const auto& c : children) {
    for (size_t p = c.begin + 1; p < c.end; ++p) {
      EXPECT_LT(parent_pos[f.rows.ids[p - 1]], parent_pos[f.rows.ids[p]])
          << "child [" << c.begin << ", " << c.end << ") at " << p;
    }
  }
}

// Every column and the aggregate move with the id: after a split, each
// position holds the dataset's values for the id at that position.
TEST(MultiSplit, RowsMoveWhole) {
  SplitFixture f(3, 300, 27);
  // Split on a subset of the columns: the third column must still move.
  const auto children = MultiSplit({2, 0}, 0, 300, Rect::All(3), &f.rows);
  ASSERT_GE(children.size(), 2u);
  for (size_t i = 0; i < 300; ++i) {
    const uint32_t row = f.rows.ids[i];
    for (size_t dim = 0; dim < 3; ++dim) {
      EXPECT_EQ(f.rows.pred[dim][i], f.cols[dim][row]) << "dim " << dim;
    }
    EXPECT_EQ(f.rows.agg[i], f.agg[row]);
  }
}

TEST(MultiSplit, ConditionNarrowsOnlyTheSplitDims) {
  SplitFixture f(3, 120, 28);
  Rect parent = Rect::All(3);
  parent.dim(1) = {-5.0, 105.0};
  const auto children = MultiSplit({2, 0}, 0, 120, parent, &f.rows);
  ASSERT_EQ(children.size(), 4u);
  for (const auto& c : children) {
    EXPECT_EQ(c.condition.dim(1), parent.dim(1));
    for (size_t p = c.begin; p < c.end; ++p) {
      EXPECT_TRUE(c.condition.ContainsPoint(f.Point(f.rows.ids[p])));
    }
  }
}

TEST(MultiSplit, HalvesAreBalancedIn1D) {
  SplitFixture f(1, 101, 23);
  const auto children = MultiSplit(f.all_dims, 0, 101, Rect::All(1), &f.rows);
  ASSERT_EQ(children.size(), 2u);
  const size_t left = children[0].end - children[0].begin;
  const size_t right = children[1].end - children[1].begin;
  EXPECT_NEAR(static_cast<double>(left), 50.5, 1.5);
  EXPECT_EQ(left + right, 101u);
}

TEST(MultiSplit, ChildConditionsNestInParent) {
  SplitFixture f(2, 80, 24);
  Rect parent(2);
  parent.dim(0) = {0.0, 100.0};
  parent.dim(1) = {0.0, 100.0};
  const auto children = MultiSplit(f.all_dims, 0, 80, parent, &f.rows);
  for (const auto& c : children) {
    EXPECT_TRUE(parent.ContainsRect(c.condition));
  }
}

TEST(MultiSplit, IdenticalPointsAreUnsplittable) {
  KdRowStore rows;
  rows.pred = {{5.0, 5.0, 5.0, 5.0}};
  rows.agg = {1.0, 2.0, 3.0, 4.0};
  rows.ids = {3, 1, 0, 2};
  const auto children = MultiSplit({0}, 0, 4, Rect::All(1), &rows);
  EXPECT_EQ(children.size(), 1u);
  EXPECT_EQ(rows.ids, (std::vector<uint32_t>{3, 1, 0, 2}));
}

TEST(MultiSplit, SubRangeOnly) {
  SplitFixture f(1, 50, 25);
  const KdRowStore before = f.rows;
  const auto children = MultiSplit(f.all_dims, 10, 30, Rect::All(1), &f.rows);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children.front().begin, 10u);
  EXPECT_EQ(children.back().end, 30u);
  for (const size_t i : {size_t{0}, size_t{9}, size_t{30}, size_t{49}}) {
    EXPECT_EQ(f.rows.ids[i], before.ids[i]);
    EXPECT_EQ(f.rows.pred[0][i], before.pred[0][i]);
    EXPECT_EQ(f.rows.agg[i], before.agg[i]);
  }
}

// The threshold is the value of rank n / 2 over the range; rows equal to
// it go low.
TEST(MultiSplit, MedianIsTheValueOfRankHalfN) {
  for (const size_t n : {size_t{5}, size_t{4}}) {
    KdRowStore rows;
    rows.pred = {std::vector<double>{9.0, 1.0, 5.0, 3.0, 7.0}};
    rows.pred[0].resize(n);  // {9,1,5,3,7} and {9,1,5,3}: both -> 5
    rows.agg.assign(n, 1.0);
    rows.ids.resize(n);
    std::iota(rows.ids.begin(), rows.ids.end(), 0u);
    const auto children = MultiSplit({0}, 0, n, Rect::All(1), &rows);
    ASSERT_EQ(children.size(), 2u) << "n=" << n;
    EXPECT_EQ(children[0].condition.dim(0).hi, 5.0);
    EXPECT_EQ(children[0].end - children[0].begin, 3u);
    EXPECT_EQ(rows.pred[0][0], 1.0);  // low side in parent order: 1, 5, 3
    EXPECT_EQ(rows.pred[0][1], 5.0);
    EXPECT_EQ(rows.pred[0][2], 3.0);
  }
}

}  // namespace
}  // namespace pass
