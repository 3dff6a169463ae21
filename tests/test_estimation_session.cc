/// The resumable-estimation contract: an EstimationSession advanced to a
/// cumulative budget b is bit-identical to a fresh budgeted AnswerMulti at
/// max_scan_units = b with the same seed — for the plain synopsis, the
/// sharded synopsis (K = 2, 4) and the routed ensemble — and its
/// PlanCost/UnitsScanned accounting matches the plan. Systems without an
/// anytime path return no session.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/synopsis.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "stats/confidence.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectAnswersBitIdentical;

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

void ExpectMultiBitIdentical(const MultiAnswer& a, const MultiAnswer& b) {
  ExpectAnswersBitIdentical(a.sum, b.sum);
  ExpectAnswersBitIdentical(a.count, b.count);
  ExpectAnswersBitIdentical(a.avg, b.avg);
  EXPECT_EQ(a.sum_count_cov, b.sum_count_cov);
  EXPECT_EQ(a.fused, b.fused);
}

std::unique_ptr<AqpSystem> MustCreate(const std::string& name,
                                      const Dataset& data, size_t num_shards) {
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.num_shards = num_shards;
  config.seed = 511;
  auto engine = EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

struct SessionCase {
  std::string name;
  size_t num_shards = 1;
};

class SessionParity : public ::testing::TestWithParam<SessionCase> {};

// The tentpole contract: every AdvanceTo(b) — including re-asking for a
// smaller, already-covered b — reproduces the fresh budgeted run at cap b
// bit for bit, while only ever scanning the delta units.
TEST_P(SessionParity, ResumedAnswersBitIdenticalToFreshBudgetedRuns) {
  const SessionCase& param = GetParam();
  const Dataset data = MakeIntelLike(12000, 503);
  const auto system = MustCreate(param.name, data, param.num_shards);
  ASSERT_TRUE(system->SupportsBudget());
  for (const Rect& predicate : TestPredicates(data)) {
    for (const uint64_t seed : {uint64_t{7}, uint64_t{9001}}) {
      const auto session = system->StartSession(predicate, seed);
      ASSERT_NE(session, nullptr);
      const uint64_t plan = session->PlanCost();
      ASSERT_GT(plan, 0u);
      const std::vector<uint64_t> ladder = {0,        plan / 4, plan / 2,
                                            plan - 1, plan,     plan + 10};
      uint64_t last_used = 0;
      for (const uint64_t cap : ladder) {
        const MultiAnswer resumed = session->AdvanceTo(cap);
        AnswerOptions options;
        options.budget.max_scan_units = cap;
        options.seed = seed;
        ExpectMultiBitIdentical(resumed,
                                system->AnswerMulti(predicate, options));
        // Accounting: the session never un-scans, never exceeds the cap
        // or the plan, and reports exhaustion exactly when the whole plan
        // has been scanned.
        EXPECT_GE(session->UnitsScanned(), last_used);
        EXPECT_LE(session->UnitsScanned(), std::min(cap, plan));
        last_used = session->UnitsScanned();
        EXPECT_EQ(session->Exhausted(), session->UnitsScanned() >= plan);
      }
      EXPECT_TRUE(session->Exhausted());
      // A session that overshot its plan reassembles the full answer.
      ExpectMultiBitIdentical(session->AdvanceTo(plan + 10),
                              session->AdvanceTo(plan));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, SessionParity,
    ::testing::Values(SessionCase{"pass"}, SessionCase{"ensemble"},
                      SessionCase{"sharded_pass"},
                      SessionCase{"sharded_pass", 2},
                      SessionCase{"sharded_pass", 4}),
    [](const ::testing::TestParamInfo<SessionCase>& info) {
      return info.param.name +
             (info.param.num_shards > 1
                  ? "_k" + std::to_string(info.param.num_shards)
                  : "");
    });

// Re-requesting a cap the session already covered must reassemble the
// answer for that *smaller* budget, not the largest seen: budgets are
// cumulative but answers are exact functions of the cap.
TEST(EstimationSession, SmallerCapAfterLargerReassemblesThatBudget) {
  const Dataset data = MakeIntelLike(12000, 505);
  const auto system = MustCreate("pass", data, 1);
  const Rect predicate = TestPredicates(data)[0];
  const auto session = system->StartSession(predicate, 11);
  ASSERT_NE(session, nullptr);
  const uint64_t plan = session->PlanCost();
  ASSERT_GT(plan, 2u);
  const MultiAnswer full = session->AdvanceTo(plan);
  AnswerOptions options;
  options.budget.max_scan_units = plan;
  options.seed = 11;
  ExpectMultiBitIdentical(full, system->AnswerMulti(predicate, options));
  // The session has scanned everything; asking for the old half cap must
  // NOT return the half-budget answer (nothing is un-scanned) — it stays
  // the full answer, and UnitsScanned stays put.
  const uint64_t scanned = session->UnitsScanned();
  ExpectMultiBitIdentical(session->AdvanceTo(plan / 2), full);
  EXPECT_EQ(session->UnitsScanned(), scanned);
}

// Out-of-line query construction sidesteps a GCC 12 -O3 -Wnonnull false
// positive on the inlined empty-Rect copy-assign.
Query WithAgg(AggregateType agg, const Rect& predicate) {
  Query q;
  q.agg = agg;
  q.predicate = predicate;
  return q;
}

// The per-aggregate budgeted path spends the same units as the session:
// a budgeted Answer(kSum) or Answer(kCount) at cap b is the session's sum
// or count at b, bit for bit.
TEST(EstimationSession, BudgetedSumAndCountMatchTheSessionAtEveryCap) {
  const Dataset data = MakeIntelLike(12000, 509);
  for (const size_t k : {size_t{1}, size_t{2}, size_t{4}}) {
    const auto system = MustCreate("sharded_pass", data, k);
    for (const Rect& predicate : TestPredicates(data)) {
      const uint64_t seed = 23;
      const auto session = system->StartSession(predicate, seed);
      ASSERT_NE(session, nullptr);
      const uint64_t plan = session->PlanCost();
      for (const uint64_t cap : {uint64_t{0}, plan / 3, plan / 2, plan}) {
        const MultiAnswer resumed = session->AdvanceTo(cap);
        AnswerOptions options;
        options.budget.max_scan_units = cap;
        options.seed = seed;
        ExpectAnswersBitIdentical(
            system->Answer(WithAgg(AggregateType::kSum, predicate), options),
            resumed.sum);
        ExpectAnswersBitIdentical(
            system->Answer(WithAgg(AggregateType::kCount, predicate),
                           options),
            resumed.count);
      }
    }
  }
}

// A soft deadline that never arrives admits every unit, so whatever order
// the walk spends them in, it answers what the unlimited budget answers.
TEST(EstimationSession, FarSoftDeadlineAnswersLikeTheUnlimitedBudget) {
  const Dataset data = MakeIntelLike(12000, 513);
  for (const size_t k : {size_t{1}, size_t{2}, size_t{4}}) {
    const auto system = MustCreate("sharded_pass", data, k);
    AnswerOptions options;
    options.budget.soft_deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    options.seed = 29;
    for (const Rect& predicate : TestPredicates(data)) {
      ExpectMultiBitIdentical(system->AnswerMulti(predicate, options),
                              system->AnswerMulti(predicate));
      for (const AggregateType agg :
           {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg,
            AggregateType::kMin, AggregateType::kMax}) {
        const Query q = WithAgg(agg, predicate);
        ExpectAnswersBitIdentical(system->Answer(q, options),
                                  system->Answer(q));
      }
    }
  }
}

// A step whose soft deadline has already passed stops at its first unit:
// it scans nothing and answers truncated. The checkpoint does not move,
// so the next deadline-free step is the fresh budgeted answer at its cap.
TEST(EstimationSession, PassedDeadlineStopsTheStepAtItsFirstUnit) {
  const Dataset data = MakeIntelLike(12000, 517);
  for (const size_t k : {size_t{1}, size_t{4}}) {
    const auto system = MustCreate(k == 1 ? "pass" : "sharded_pass", data, k);
    for (const Rect& predicate : TestPredicates(data)) {
      const uint64_t seed = 31;
      const auto session = system->StartSession(predicate, seed);
      ASSERT_NE(session, nullptr);
      const uint64_t plan = session->PlanCost();
      ASSERT_GT(plan, 0u);
      const MultiAnswer cut = session->AdvanceTo(
          plan, std::chrono::steady_clock::now() - std::chrono::seconds(1));
      EXPECT_EQ(session->UnitsScanned(), 0u) << "K=" << k;
      EXPECT_EQ(cut.sum.sample_rows_scanned, 0u) << "K=" << k;
      EXPECT_TRUE(cut.sum.truncated) << "K=" << k;
      EXPECT_TRUE(cut.avg.truncated) << "K=" << k;

      AnswerOptions options;
      options.budget.max_scan_units = plan;
      options.seed = seed;
      ExpectMultiBitIdentical(session->AdvanceTo(plan),
                              system->AnswerMulti(predicate, options));
      EXPECT_TRUE(session->Exhausted()) << "K=" << k;
    }
  }
}

// Resuming one session up the {25, 50, 100}% ladder scans every unit once,
// exactly the plan; a fresh budgeted answer at each rung re-scans the
// rung's whole prefix.
TEST(EstimationSession, ResumingTheLadderScansLessThanRestarting) {
  const Dataset data = MakeIntelLike(12000, 515);
  WorkloadOptions wl;
  wl.count = 50;
  wl.seed = 13;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  for (const size_t k : {size_t{1}, size_t{2}, size_t{4}}) {
    const auto system = MustCreate("sharded_pass", data, k);
    uint64_t resumed = 0;
    uint64_t restarted = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const Rect& predicate = queries[i].predicate;
      const auto session = system->StartSession(predicate, i);
      ASSERT_NE(session, nullptr);
      const uint64_t plan = session->PlanCost();
      for (const uint64_t pct : {25u, 50u, 100u}) {
        const uint64_t cap = plan * pct / 100;
        (void)session->AdvanceTo(cap);
        AnswerOptions options;
        options.budget.max_scan_units = cap;
        options.seed = i;
        restarted +=
            system->AnswerMulti(predicate, options).sum.sample_rows_scanned;
      }
      EXPECT_EQ(session->UnitsScanned(), plan) << "K=" << k;
      resumed += session->UnitsScanned();
    }
    EXPECT_LT(resumed, restarted) << "K=" << k;
  }
}

TEST(EstimationSession, NonBudgetSystemsReturnNoSession) {
  const Dataset data = MakeIntelLike(4000, 507);
  for (const char* name : {"exact", "uniform", "stratified"}) {
    const auto system = MustCreate(name, data, 1);
    ASSERT_FALSE(system->SupportsBudget()) << name;
    EXPECT_EQ(system->StartSession(TestPredicates(data)[0]), nullptr) << name;
  }
}

// The confidence->lambda bridge the scheduler's stopping conditions use.
TEST(EstimationSession, LambdaForConfidenceMatchesTheZTable) {
  EXPECT_NEAR(LambdaForConfidence(0.90), kLambda90, 5e-4);
  EXPECT_NEAR(LambdaForConfidence(0.95), kLambda95, 5e-4);
  EXPECT_NEAR(LambdaForConfidence(0.99), kLambda99, 5e-4);
  // Monotone in the confidence level; sane at the extremes.
  EXPECT_LT(LambdaForConfidence(0.5), LambdaForConfidence(0.9));
  EXPECT_LT(LambdaForConfidence(0.9), LambdaForConfidence(0.999));
  EXPECT_GT(LambdaForConfidence(0.999999), 4.0);
}

}  // namespace
}  // namespace pass
