/// GROUP BY through the canonical AnswerOptions path: grouped rows match
/// the per-group queries they rewrite to (bit for bit), the fused variant
/// matches AnswerMulti per group, budgets forward to every group, and
/// DistinctValues enumerates categorical domains and refuses continuous
/// ones.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/group_by.h"
#include "core/synopsis.h"
#include "data/generators.h"
#include "storage/dataset.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectAnswersBitIdentical;
using testing::MustBuild;

/// A 2-D dataset whose dim 1 is categorical (values 0..4): dim 0 keeps the
/// Intel-lab-like time range, dim 1 assigns each row to one of five groups
/// ("sensor id") round-robin.
Dataset MakeGroupedData(size_t rows, uint64_t seed) {
  const Dataset data = MakeIntelLike(rows, seed);
  Dataset grouped("light", {"time", "sensor"});
  grouped.Reserve(data.NumRows());
  for (size_t i = 0; i < data.NumRows(); ++i) {
    grouped.AddRow({data.pred(0, i), static_cast<double>(i % 5)},
                   data.agg(i));
  }
  return grouped;
}

Synopsis BuildOverGroups(const Dataset& data) {
  BuildOptions build;
  build.num_leaves = 32;
  build.sample_rate = 0.05;
  build.seed = 601;
  return MustBuild(data, build);
}

TEST(GroupBy, RowsMatchThePerGroupQueriesTheyRewriteTo) {
  const Dataset data = MakeGroupedData(10000, 601);
  const Synopsis synopsis = BuildOverGroups(data);
  const std::vector<double> groups = DistinctValues(data, 1).value();
  ASSERT_EQ(groups.size(), 5u);

  Rect base = Rect::All(data.NumPredDims());
  base.dim(0) = Interval{2500.0, 15321.0};
  const auto rows =
      AnswerGroupBy(synopsis, AggregateType::kSum, base, /*group_dim=*/1,
                    groups);
  ASSERT_EQ(rows.size(), groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(rows[g].group_value, groups[g]);
    Query q;
    q.agg = AggregateType::kSum;
    q.predicate = base;
    q.predicate.dim(1) = Interval{groups[g], groups[g]};
    ExpectAnswersBitIdentical(rows[g].answer, synopsis.Answer(q));
    // Union-of-groups sanity: each group's truth lies inside its row's
    // hard bounds (up to FP summation order — the tree accumulates in a
    // different order than the exact scan).
    const ExactResult truth = ExactAnswer(data, q);
    ASSERT_TRUE(rows[g].answer.hard_lb && rows[g].answer.hard_ub);
    const double slack = 1e-9 * std::max(1.0, std::abs(truth.value));
    EXPECT_LE(*rows[g].answer.hard_lb, truth.value + slack);
    EXPECT_GE(*rows[g].answer.hard_ub, truth.value - slack);
  }
}

TEST(GroupBy, FusedRowsMatchAnswerMultiPerGroup) {
  const Dataset data = MakeGroupedData(10000, 603);
  const Synopsis synopsis = BuildOverGroups(data);
  const std::vector<double> groups = DistinctValues(data, 1).value();

  Rect base = Rect::All(data.NumPredDims());
  base.dim(0) = Interval{3137.0, 9421.0};
  const auto rows = AnswerGroupByMulti(synopsis, base, /*group_dim=*/1,
                                       groups);
  ASSERT_EQ(rows.size(), groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    Rect predicate = base;
    predicate.dim(1) = Interval{groups[g], groups[g]};
    const MultiAnswer direct = synopsis.AnswerMulti(predicate);
    ExpectAnswersBitIdentical(rows[g].answer.sum, direct.sum);
    ExpectAnswersBitIdentical(rows[g].answer.count, direct.count);
    ExpectAnswersBitIdentical(rows[g].answer.avg, direct.avg);
    EXPECT_EQ(rows[g].answer.sum_count_cov, direct.sum_count_cov);
    EXPECT_TRUE(rows[g].answer.fused);
  }
}

TEST(GroupBy, BudgetOptionsForwardToEveryGroup) {
  const Dataset data = MakeGroupedData(10000, 605);
  const Synopsis synopsis = BuildOverGroups(data);
  const std::vector<double> groups = DistinctValues(data, 1).value();

  Rect base = Rect::All(data.NumPredDims());
  base.dim(0) = Interval{2500.0, 15321.0};

  // Zero budget: every group with sampled work answers from bounds alone
  // and reports the truncation; the per-group answers match direct
  // zero-budget queries bit for bit.
  AnswerOptions zero;
  zero.budget.max_scan_units = 0;
  zero.seed = 13;
  const auto rows = AnswerGroupByMulti(synopsis, base, /*group_dim=*/1,
                                       groups, zero);
  size_t truncated = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    Rect predicate = base;
    predicate.dim(1) = Interval{groups[g], groups[g]};
    const MultiAnswer direct = synopsis.AnswerMulti(predicate, zero);
    ExpectAnswersBitIdentical(rows[g].answer.sum, direct.sum);
    EXPECT_EQ(rows[g].answer.sum.sample_rows_scanned, 0u);
    if (rows[g].answer.sum.truncated) ++truncated;
  }
  // The base range is wide: at least one group must have had planned
  // sampled work to skip.
  EXPECT_GT(truncated, 0u);

  // And an unlimited-budget grouped run equals the unbudgeted one.
  const auto full = AnswerGroupBy(synopsis, AggregateType::kAvg, base, 1,
                                  groups, AnswerOptions{});
  const auto plain = AnswerGroupBy(synopsis, AggregateType::kAvg, base, 1,
                                   groups);
  ASSERT_EQ(full.size(), plain.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    ExpectAnswersBitIdentical(full[g].answer, plain[g].answer);
  }
}

// The groups of a categorical column partition the table, so their COUNT
// rows add up to about N.
TEST(GroupBy, GroupCountsAddUpToTheTable) {
  const Dataset data = MakeInstacartLike(40000, 7, 20);
  BuildOptions options;
  options.num_leaves = 16;
  options.sample_rate = 0.05;
  const Synopsis s = MustBuild(data, options);
  const std::vector<double> groups = DistinctValues(data, 0).value();
  double total = 0.0;
  for (const GroupByRow& row :
       AnswerGroupBy(s, AggregateType::kCount, Rect::All(1), 0, groups)) {
    total += row.answer.estimate.value;
  }
  EXPECT_NEAR(total, 40000.0, 40000.0 * 0.1);
}

TEST(GroupBy, DistinctValuesOfCategoricalColumn) {
  const Dataset data = MakeInstacartLike(5000, 5, 50);
  const auto values = DistinctValues(data, 0);
  ASSERT_TRUE(values.has_value());
  EXPECT_FALSE(values->empty());
  EXPECT_LE(values->size(), 50u);
  EXPECT_TRUE(std::is_sorted(values->begin(), values->end()));
}

TEST(GroupBy, RefusesContinuousColumns) {
  const Dataset data = MakeUniform(10000, 6);
  // Truncation is nullopt, distinguishable from a genuinely empty column.
  EXPECT_FALSE(DistinctValues(data, 0, 100).has_value());
}

}  // namespace
}  // namespace pass
