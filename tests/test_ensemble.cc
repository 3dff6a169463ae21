#include "partition/ensemble.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "data/generators.h"
#include "data/workload.h"
#include "stats/quantile.h"
#include "tests/test_util.h"

namespace pass {
namespace {

BuildOptions EnsembleBase(size_t leaves = 16) {
  BuildOptions options;
  options.num_leaves = leaves;
  options.sample_rate = 0.02;
  options.strategy = PartitionStrategy::kEqualDepth;
  options.seed = 121;
  return options;
}

SynopsisEnsemble MustBuildEnsemble(
    const Dataset& data, const std::vector<std::vector<size_t>>& templates,
    BuildOptions base = EnsembleBase()) {
  Result<SynopsisEnsemble> built = BuildEnsemble(data, templates, base);
  PASS_CHECK_MSG(built.ok(), built.status().ToString().c_str());
  return std::move(built).value();
}

Rect ConstrainDims(size_t num_dims, const std::vector<size_t>& dims) {
  Rect r = Rect::All(num_dims);
  for (const size_t d : dims) r.dim(d) = Interval{10.0, 20.0};
  return r;
}

TEST(SynopsisEnsemble, RoutesToBestMatchingTemplate) {
  const Dataset data = MakeTaxiLike(6000, 122).WithPredDims(3);
  const SynopsisEnsemble ensemble =
      MustBuildEnsemble(data, {{0}, {1}, {0, 1}});
  ASSERT_EQ(ensemble.NumMembers(), 3u);
  // Score: shared constrained dims count 2, unused partition dims -1.
  // dim0 only: member0 scores 2, member1 -1, member2 2-1=1.
  EXPECT_EQ(ensemble.RouteIndex(ConstrainDims(3, {0})), 0u);
  // dim1 only: member1 wins symmetrically.
  EXPECT_EQ(ensemble.RouteIndex(ConstrainDims(3, {1})), 1u);
  // dims {0,1}: member2 scores 4, beating both 1-D members at 2.
  EXPECT_EQ(ensemble.RouteIndex(ConstrainDims(3, {0, 1})), 2u);
  // dim2 (no member partitions it): smallest penalty wins — a 1-D member
  // at -1 over the 2-D member at -2; ties break to the first member.
  EXPECT_EQ(ensemble.RouteIndex(ConstrainDims(3, {2})), 0u);
}

TEST(SynopsisEnsemble, AnswerUsesTheRoutedMember) {
  const Dataset data = MakeTaxiLike(6000, 123).WithPredDims(2);
  const SynopsisEnsemble ensemble = MustBuildEnsemble(data, {{0}, {1}});
  Query q;
  q.agg = AggregateType::kSum;
  q.predicate = ConstrainDims(2, {1});
  const size_t routed = ensemble.RouteIndex(q.predicate);
  ASSERT_EQ(routed, 1u);
  const QueryAnswer direct = ensemble.member(routed).Answer(q);
  const QueryAnswer via_ensemble = ensemble.Answer(q);
  EXPECT_EQ(via_ensemble.estimate.value, direct.estimate.value);
  EXPECT_EQ(via_ensemble.estimate.variance, direct.estimate.variance);
}

// BuildEnsemble's fair-total contract: the members together store about
// one `base` budget worth of samples, split evenly across members. The
// budget is the sample rate's share of the rows, or an explicit
// sample_budget, which overrides the rate.
TEST(SynopsisEnsemble, FairTotalBudgetSplitAcrossMembers) {
  const Dataset data = MakeTaxiLike(30000, 124).WithPredDims(2);
  BuildOptions explicit_budget = EnsembleBase();
  explicit_budget.sample_budget = 1000;
  for (const BuildOptions& base : {EnsembleBase(), explicit_budget}) {
    const SynopsisEnsemble ensemble =
        MustBuildEnsemble(data, {{0}, {1}, {0, 1}}, base);
    const double total_budget =
        base.sample_budget
            ? static_cast<double>(*base.sample_budget)
            : base.sample_rate * static_cast<double>(data.NumRows());
    const double per_member = total_budget / 3.0;
    double stored_total = 0.0;
    for (size_t m = 0; m < ensemble.NumMembers(); ++m) {
      double stored = 0.0;
      for (size_t leaf = 0; leaf < ensemble.member(m).NumLeaves(); ++leaf) {
        stored +=
            static_cast<double>(ensemble.member(m).leaf_sample(leaf).size());
      }
      EXPECT_NEAR(stored, per_member, 0.2 * per_member) << "member " << m;
      stored_total += stored;
    }
    EXPECT_NEAR(stored_total, total_budget, 0.15 * total_budget);
  }
}

TEST(SynopsisEnsemble, CostsAggregateMembers) {
  const Dataset data = MakeTaxiLike(6000, 125).WithPredDims(2);
  const SynopsisEnsemble ensemble = MustBuildEnsemble(data, {{0}, {1}});
  uint64_t storage = 0;
  double build_seconds = 0.0;
  for (size_t m = 0; m < ensemble.NumMembers(); ++m) {
    storage += ensemble.member(m).Costs().storage_bytes;
    build_seconds += ensemble.member(m).Costs().build_seconds;
  }
  EXPECT_EQ(ensemble.Costs().storage_bytes, storage);
  EXPECT_DOUBLE_EQ(ensemble.Costs().build_seconds, build_seconds);
  EXPECT_EQ(ensemble.Name(), "PASS-Ensemble");
}

// Accuracy: routed ensemble answers stay within tolerance of a single
// synopsis given the same total budget, on the workload its templates
// were built for.
TEST(SynopsisEnsemble, AnswersMatchSingleSynopsisWithinTolerance) {
  const Dataset data = MakeTaxiLike(30000, 126).WithPredDims(2);
  BuildOptions base = EnsembleBase();
  const SynopsisEnsemble ensemble = MustBuildEnsemble(data, {{0}, {1}}, base);
  base.partition_dims = {0};
  Result<Synopsis> single = BuildSynopsis(data, base);
  ASSERT_TRUE(single.ok());

  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 120;
  wl.template_dims = {0};
  wl.seed = 127;
  std::vector<double> ens_err;
  std::vector<double> single_err;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const ExactResult truth = ExactAnswer(data, q);
    if (!UsableGroundTruth(truth)) continue;
    ens_err.push_back(RelativeError(ensemble.Answer(q).estimate.value, truth));
    single_err.push_back(
        RelativeError(single->Answer(q).estimate.value, truth));
  }
  ASSERT_GT(ens_err.size(), 60u);
  // The ensemble member answering dim-0 queries has 1/2 the budget of the
  // single synopsis; allow that factor plus sampling noise, and require
  // decent absolute accuracy.
  const double ens_median = Median(ens_err);
  const double single_median = Median(single_err);
  EXPECT_LT(ens_median, 0.1);
  EXPECT_LT(ens_median, 4.0 * single_median + 0.02);
}

// Hard bounds hold over a 3-D workload whichever member the router picks.
TEST(SynopsisEnsemble, AnswersAreValidWhicheverMemberRoutes) {
  const Dataset data = MakeTaxiLike(30000, 10).WithPredDims(3);
  BuildOptions base;
  base.num_leaves = 64;
  base.sample_rate = 0.03;
  const SynopsisEnsemble ensemble =
      MustBuildEnsemble(data, {{0}, {0, 1}, {0, 1, 2}}, base);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 60;
  wl.template_dims = {0, 1};
  wl.seed = 11;
  for (const Query& q : RandomRangeQueries(data, wl)) {
    const ExactResult truth = ExactAnswer(data, q);
    if (truth.matched == 0) continue;
    const QueryAnswer answer = ensemble.Answer(q);
    ASSERT_TRUE(answer.hard_lb && answer.hard_ub);
    const double slack = 1e-9 * (1.0 + std::abs(truth.value));
    EXPECT_GE(truth.value, *answer.hard_lb - slack);
    EXPECT_LE(truth.value, *answer.hard_ub + slack);
  }
}

TEST(BuildEnsemble, RejectsEmptyTemplates) {
  const Dataset data = MakeUniform(1000, 128);
  Result<SynopsisEnsemble> built = BuildEnsemble(data, {}, EnsembleBase());
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pass
