/// The anytime-estimation contract: with an unlimited budget the budgeted
/// Answer/AnswerMulti overloads are bit-identical to the unbudgeted ones
/// for every registry engine; with a finite budget they are deterministic
/// in (budget, seed), respect the unit cap, fall back to pure bounds at
/// budget zero, and split a global budget across shards by whole-unit
/// prefix admission along one global interleaved order (never
/// over-committing, monotone per shard in the budget); truncation flags
/// propagate through the shard merge and ensemble routing.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/synopsis.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "partition/ensemble.h"
#include "shard/sharded_synopsis.h"
#include "stats/quantile.h"
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

// Out-of-line query construction (instead of member-wise assignment at
// every call site) also sidesteps a GCC 12 -O3 -Wnonnull false positive
// on the empty-Rect copy-assign it would otherwise inline here.
Query WithAgg(AggregateType agg, const Rect& predicate) {
  Query q;
  q.agg = agg;
  q.predicate = predicate;
  return q;
}

void ExpectMultiBitIdentical(const MultiAnswer& a, const MultiAnswer& b) {
  ExpectAnswersBitIdentical(a.sum, b.sum);
  ExpectAnswersBitIdentical(a.count, b.count);
  ExpectAnswersBitIdentical(a.avg, b.avg);
  EXPECT_EQ(a.sum_count_cov, b.sum_count_cov);
  EXPECT_EQ(a.fused, b.fused);
}

// ---------------------------------------------------------------------------
// Unlimited budget == the pre-budget path, for every engine
// ---------------------------------------------------------------------------

struct EngineCase {
  std::string name;
  size_t num_shards = 1;
};

class AnytimeParity : public ::testing::TestWithParam<EngineCase> {};

TEST_P(AnytimeParity, UnlimitedBudgetBitIdenticalToUnbudgetedPath) {
  const EngineCase& param = GetParam();
  const Dataset data = MakeIntelLike(8000, 311);
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.num_shards = param.num_shards;
  config.seed = 312;
  auto engine = EngineRegistry::Global().Create(param.name, data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const AnswerOptions unlimited;  // default: the identity
  ASSERT_TRUE(unlimited.budget.Unlimited());
  for (const Rect& predicate : TestPredicates(data)) {
    ExpectMultiBitIdentical((*engine)->AnswerMulti(predicate, unlimited),
                            (*engine)->AnswerMulti(predicate));
    for (const AggregateType agg :
         {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg,
          AggregateType::kMin, AggregateType::kMax}) {
      const Query q = WithAgg(agg, predicate);
      ExpectAnswersBitIdentical((*engine)->Answer(q, unlimited),
                                (*engine)->Answer(q));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AnytimeParity,
    ::testing::Values(EngineCase{"exact"}, EngineCase{"uniform"},
                      EngineCase{"stratified"}, EngineCase{"agg_uniform"},
                      EngineCase{"spn"}, EngineCase{"pass"},
                      EngineCase{"ensemble"}, EngineCase{"sharded_pass"},
                      EngineCase{"sharded_pass", 2},
                      EngineCase{"sharded_pass", 4}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name +
             (info.param.num_shards > 1
                  ? "_k" + std::to_string(info.param.num_shards)
                  : "");
    });

// ---------------------------------------------------------------------------
// Finite budgets: determinism, cap respected, zero-budget bounds answers
// ---------------------------------------------------------------------------

TEST(Anytime, MidBudgetAnswersAreDeterministicUnderAFixedSeed) {
  const Dataset data = MakeIntelLike(12000, 313);
  BuildOptions build;
  build.num_leaves = 32;
  build.sample_rate = 0.02;
  build.seed = 314;
  const Synopsis s = MustBuild(data, build);
  for (const Rect& predicate : TestPredicates(data)) {
    const uint64_t plan = s.PlanScanCost(predicate);
    ASSERT_GT(plan, 0u);
    AnswerOptions options;
    options.budget.max_scan_units = plan / 2;
    options.seed = 991;
    ExpectMultiBitIdentical(s.AnswerMulti(predicate, options),
                            s.AnswerMulti(predicate, options));
    const Query q = WithAgg(AggregateType::kSum, predicate);
    ExpectAnswersBitIdentical(s.Answer(q, options), s.Answer(q, options));
  }
}

TEST(Anytime, BudgetCapAndPlanAccountingAreRespected) {
  const Dataset data = MakeIntelLike(12000, 315);
  BuildOptions build;
  build.num_leaves = 32;
  build.sample_rate = 0.02;
  build.seed = 316;
  const Synopsis s = MustBuild(data, build);
  // Pick the test predicate with the most sampled work (a query can align
  // with the partitioning and plan zero units — no budget to ration then).
  Rect predicate = TestPredicates(data)[0];
  for (const Rect& candidate : TestPredicates(data)) {
    if (s.PlanScanCost(candidate) > s.PlanScanCost(predicate)) {
      predicate = candidate;
    }
  }
  const uint64_t plan = s.PlanScanCost(predicate);
  ASSERT_GT(plan, 0u);

  // The plan the budgeted path reports equals the standalone plan cost,
  // and an unlimited answer consumes exactly all of it.
  const MultiAnswer full = s.AnswerMulti(predicate);
  EXPECT_EQ(full.sum.scan_units_planned, plan);
  EXPECT_EQ(full.sum.sample_rows_scanned, plan);
  EXPECT_FALSE(full.sum.truncated);

  for (const uint64_t budget : {plan / 4, plan / 2, plan - 1}) {
    AnswerOptions options;
    options.budget.max_scan_units = budget;
    options.seed = 17;
    const MultiAnswer m = s.AnswerMulti(predicate, options);
    EXPECT_LE(m.sum.sample_rows_scanned, budget) << "budget " << budget;
    EXPECT_EQ(m.sum.scan_units_planned, plan);
    EXPECT_TRUE(m.sum.truncated);
    // SUM/COUNT/AVG truncate together over the shared execution set.
    EXPECT_TRUE(m.count.truncated);
    EXPECT_TRUE(m.avg.truncated);
    EXPECT_EQ(m.count.sample_rows_scanned, m.sum.sample_rows_scanned);
  }
}

TEST(Anytime, ZeroBudgetAnswersFromBoundsAlone) {
  const Dataset data = MakeIntelLike(12000, 317);
  BuildOptions build;
  build.num_leaves = 32;
  build.sample_rate = 0.02;
  build.seed = 318;
  const Synopsis s = MustBuild(data, build);
  const Rect predicate = TestPredicates(data)[1];
  const Query q = WithAgg(AggregateType::kSum, predicate);
  const ExactResult truth = ExactAnswer(data, q);

  AnswerOptions options;
  options.budget.max_scan_units = 0;
  const MultiAnswer m = s.AnswerMulti(predicate, options);
  ASSERT_GT(m.sum.partial_leaves, 0u);
  EXPECT_EQ(m.sum.sample_rows_scanned, 0u);
  EXPECT_TRUE(m.sum.truncated);
  // The zero-budget estimate is assembled purely from precomputed
  // aggregates: it must sit inside the deterministic hard bounds, which
  // in turn contain the truth.
  ASSERT_TRUE(m.sum.hard_lb.has_value() && m.sum.hard_ub.has_value());
  EXPECT_GE(m.sum.estimate.value, *m.sum.hard_lb);
  EXPECT_LE(m.sum.estimate.value, *m.sum.hard_ub);
  EXPECT_GE(truth.value, *m.sum.hard_lb);
  EXPECT_LE(truth.value, *m.sum.hard_ub);
  EXPECT_GT(m.sum.estimate.variance, 0.0);

  // Wider but valid: the zero-budget interval must not be tighter than
  // the full-budget one (pinned build, deterministic).
  const MultiAnswer full = s.AnswerMulti(predicate);
  EXPECT_GE(m.sum.estimate.HalfWidth(kLambda99),
            full.sum.estimate.HalfWidth(kLambda99));
}

TEST(Anytime, ExpiredSoftDeadlineStopsAllScans) {
  const Dataset data = MakeIntelLike(12000, 319);
  BuildOptions build;
  build.num_leaves = 32;
  build.sample_rate = 0.02;
  build.seed = 320;
  const Synopsis s = MustBuild(data, build);
  const Rect predicate = TestPredicates(data)[0];
  AnswerOptions options;  // no unit cap: the clock is the only limit
  options.budget.soft_deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(10);
  const MultiAnswer m = s.AnswerMulti(predicate, options);
  ASSERT_GT(m.sum.partial_leaves, 0u);
  EXPECT_EQ(m.sum.sample_rows_scanned, 0u);
  EXPECT_TRUE(m.sum.truncated);
}

// The accuracy side of the anytime trade, over many queries: spending the
// whole plan never buys a wider median interval than spending a quarter.
TEST(Anytime, FullBudgetIntervalIsNoWiderThanAQuarterBudgetInTheMedian) {
  const Dataset data = MakeTaxiDatetime(40000, 77);
  WorkloadOptions wl;
  wl.count = 200;
  wl.seed = 7;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  for (const size_t k : {size_t{1}, size_t{4}}) {
    EngineConfig config;
    config.sample_rate = 0.02;
    config.partitions = 64;
    config.num_shards = k;
    config.seed = 327;
    auto engine =
        EngineRegistry::Global().Create("sharded_pass", data, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::vector<double> quarter;
    std::vector<double> full;
    for (size_t i = 0; i < queries.size(); ++i) {
      const Rect& predicate = queries[i].predicate;
      const uint64_t plan =
          (*engine)->AnswerMulti(predicate).sum.scan_units_planned;
      AnswerOptions options;
      options.seed = i;
      options.budget.max_scan_units = plan / 4;
      quarter.push_back((*engine)
                            ->AnswerMulti(predicate, options)
                            .sum.estimate.HalfWidth(kLambda99));
      options.budget.max_scan_units = plan;
      full.push_back((*engine)
                         ->AnswerMulti(predicate, options)
                         .sum.estimate.HalfWidth(kLambda99));
    }
    EXPECT_LE(Median(full), Median(quarter)) << "K=" << k;
  }
}

// ---------------------------------------------------------------------------
// One walk across shards: no over-commit, monotone spend, truncation
// ---------------------------------------------------------------------------

ShardedSynopsis MustBuildSharded(const Dataset& data, size_t k,
                                 uint64_t seed) {
  ShardedBuildOptions options;
  options.shard.num_shards = k;
  options.base.num_leaves = 32;
  options.base.sample_rate = 0.02;
  options.base.seed = seed;
  Result<ShardedSynopsis> built = BuildShardedSynopsis(data, options);
  PASS_CHECK_MSG(built.ok(), built.status().ToString().c_str());
  return std::move(built).value();
}

// One budget walk spends a cap across every shard's units: whole-unit
// admission never over-commits, a cap that covers the plan admits every
// unit, and a larger cap never scans less.
TEST(Anytime, ShardBudgetNeverOverCommitsAndIsMonotone) {
  const Dataset data = MakeIntelLike(15000, 321);
  for (const size_t k : {size_t{2}, size_t{4}}) {
    const ShardedSynopsis sharded = MustBuildSharded(data, k, 91);
    for (const Rect& predicate : TestPredicates(data)) {
      const uint64_t plan = sharded.PlanScanCost(predicate);
      ASSERT_GT(plan, 0u) << "K=" << k;
      uint64_t prev = 0;
      for (const uint64_t budget :
           {uint64_t{0}, uint64_t{1}, plan / 3, plan / 2, plan,
            plan + 13}) {
        AnswerOptions options;
        options.budget.max_scan_units = budget;
        const MultiAnswer m = sharded.AnswerMulti(predicate, options);
        const uint64_t spent = m.sum.sample_rows_scanned;
        EXPECT_LE(spent, budget) << "K=" << k << " budget=" << budget;
        EXPECT_EQ(m.sum.scan_units_planned, plan);
        if (budget == 0) {
          EXPECT_EQ(spent, 0u) << "K=" << k;
        }
        if (budget >= plan) {
          EXPECT_EQ(spent, plan) << "K=" << k << " budget=" << budget;
          EXPECT_FALSE(m.sum.truncated) << "K=" << k;
        }
        // The budget ladder above is non-decreasing.
        EXPECT_GE(spent, prev) << "K=" << k << " budget=" << budget;
        prev = spent;
      }
    }
  }
}

TEST(Anytime, TruncationPropagatesThroughShardMerge) {
  const Dataset data = MakeIntelLike(15000, 323);
  for (const size_t k : {size_t{2}, size_t{4}}) {
    const ShardedSynopsis sharded = MustBuildSharded(data, k, 93);
    const Rect predicate = TestPredicates(data)[0];
    const uint64_t plan = sharded.PlanScanCost(predicate);
    ASSERT_GT(plan, 0u);

    AnswerOptions options;
    options.budget.max_scan_units = plan / 4;
    options.seed = 5;
    const MultiAnswer m = sharded.AnswerMulti(predicate, options);
    EXPECT_TRUE(m.sum.truncated) << "K=" << k;
    EXPECT_TRUE(m.avg.truncated) << "K=" << k;
    EXPECT_LE(m.sum.sample_rows_scanned, plan / 4);
    EXPECT_EQ(m.sum.scan_units_planned, plan);

    // Determinism survives the one walk across shards.
    ExpectMultiBitIdentical(m, sharded.AnswerMulti(predicate, options));

    // The budgeted scalar path agrees with its fused counterpart on AVG
    // (it *is* the fused merge's avg component).
    ExpectAnswersBitIdentical(
        sharded.Answer(WithAgg(AggregateType::kAvg, predicate), options),
        m.avg);
  }
}

TEST(Anytime, EnsembleForwardsTheBudgetToTheRoutedMember) {
  const Dataset data = MakeIntelLike(12000, 325);
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.seed = 326;
  auto engine = EngineRegistry::Global().Create("ensemble", data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Rect predicate = TestPredicates(data)[0];
  const uint64_t plan =
      (*engine)->AnswerMulti(predicate).sum.scan_units_planned;
  ASSERT_GT(plan, 0u);
  AnswerOptions options;
  options.budget.max_scan_units = plan / 2;
  options.seed = 7;
  const MultiAnswer m = (*engine)->AnswerMulti(predicate, options);
  EXPECT_TRUE(m.sum.truncated);
  EXPECT_LE(m.sum.sample_rows_scanned, plan / 2);
  ExpectMultiBitIdentical(m, (*engine)->AnswerMulti(predicate, options));
}

}  // namespace
}  // namespace pass
