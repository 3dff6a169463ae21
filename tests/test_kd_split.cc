#include "geom/kd_split.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "tests/test_util.h"

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

/// The split threshold `MultiSplit` picks for column `col` over
/// [begin, end), read as the low child's upper edge.
double SplitMedian(const std::vector<double>& col, size_t begin, size_t end) {
  KdRowStore rows;
  rows.pred = {col};
  rows.agg.assign(col.size(), 1.0);
  rows.ids.resize(col.size());
  std::iota(rows.ids.begin(), rows.ids.end(), 0u);
  const auto children = MultiSplit({0}, begin, end, Rect::All(1), &rows);
  return children.front().condition.dim(0).hi;
}

/// What std::nth_element finds at rank (end - begin) / 2 of a copy.
double CopyMedian(const std::vector<double>& col, size_t begin, size_t end) {
  std::vector<double> copy(col.begin() + static_cast<long>(begin),
                           col.begin() + static_cast<long>(end));
  const auto mid = copy.begin() + static_cast<long>(copy.size() / 2);
  std::nth_element(copy.begin(), mid, copy.end());
  return *mid;
}

/// Columns of kN values, each with the trait its name says.
constexpr size_t kN = 60'000;

std::vector<std::pair<const char*, std::vector<double>>> MedianColumns() {
  Rng rng(31);
  std::vector<std::pair<const char*, std::vector<double>>> cols;
  auto add = [&cols](const char* name) -> std::vector<double>& {
    cols.emplace_back(name, std::vector<double>(kN));
    return cols.back().second;
  };
  std::vector<double>& sorted = add("sorted");
  for (size_t i = 0; i < kN; ++i) sorted[i] = 0.5 * static_cast<double>(i);
  std::vector<double>& reversed = add("reverse-sorted");
  for (size_t i = 0; i < kN; ++i) reversed[i] = static_cast<double>(kN - i);
  std::vector<double>& organ = add("organ-pipe");
  for (size_t i = 0; i < kN; ++i) {
    organ[i] = static_cast<double>(std::min(i, kN - 1 - i)) + 0.25;
  }
  add("all-equal").assign(kN, 7.5);
  for (double& v : add("two-valued")) v = rng.Bernoulli(0.5) ? 3.0 : -1.0;
  // Like pickup_date: 31 day values.
  for (double& v : add("31-valued")) v = static_cast<double>(rng.Below(31));
  for (double& v : add("zipf-tied")) {
    v = static_cast<double>(rng.Zipf(40, 1.1));
  }
  // A huge value at every position the selection samples, ordinary values
  // elsewhere: the sample sees only the huge values, so its pivots miss
  // the median, which forces the full copy. The stride mirrors the
  // selection's sample of about n^(2/3) values over n rows starting at
  // 123; each long range length below has its own stride and column.
  for (const size_t n : {size_t{9'001}, size_t{50'001}}) {
    std::vector<double>& periodic =
        add(n < 10'000 ? "periodic (short)" : "periodic (long)");
    const double nd = static_cast<double>(n);
    const size_t stride = n / static_cast<size_t>(std::cbrt(nd * nd));
    for (size_t i = 0; i < kN; ++i) {
      // The offset from the ranges' start at 123, modulo the stride.
      const size_t offset = (i % stride + stride - 123 % stride) % stride;
      periodic[i] = offset == stride / 2 ? 1e12 + static_cast<double>(i)
                                         : static_cast<double>(i % 977);
    }
  }
  std::vector<double>& nan = add("one NaN");
  for (double& v : nan) v = rng.UniformDouble(-5.0, 5.0);
  nan[6'000] = std::numeric_limits<double>::quiet_NaN();  // in every range
  // A quarter negative, a quarter positive and half zeros of both signs,
  // in random order: rank n / 2 falls among the zeros, so the median is a
  // zero whose sign depends on the arrangement.
  std::vector<double>& zeros = add("-0.0 and +0.0 at the median");
  for (double& v : zeros) {
    const double u = rng.UniformDouble(1.0, 2.0);
    const uint64_t pick = rng.Below(4);
    v = pick == 0 ? -u : (pick == 1 ? u : (pick == 2 ? -0.0 : 0.0));
  }
  return cols;
}

// MultiSplit's threshold has the bits std::nth_element finds on a copy of
// the range, for ranges below and well above the length at which the
// selection switches to sampled pivots, on sorted, tied, adversarial,
// NaN-holding and signed-zero columns.
TEST(MultiSplit, MedianBitsEqualNthElementOnACopy) {
  for (const auto& [name, col] : MedianColumns()) {
    for (const auto& [begin, end] :
         {std::pair<size_t, size_t>{123, 123 + 9'001},
          std::pair<size_t, size_t>{123, 123 + 50'001},
          std::pair<size_t, size_t>{4'000, 4'000 + 2'500},
          std::pair<size_t, size_t>{1, kN}}) {
      EXPECT_EQ(testing::Bits(SplitMedian(col, begin, end)),
                testing::Bits(CopyMedian(col, begin, end)))
          << name << " over [" << begin << ", " << end << ")";
    }
  }
}

}  // namespace
}  // namespace pass
