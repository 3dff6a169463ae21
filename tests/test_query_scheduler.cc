/// The async serving core's contract: futures and callbacks deliver
/// answers bit-for-bit identical to the synchronous path (for every
/// registry engine, and for sharded engines answered by many scheduler
/// workers at once); deadlines convert into anytime work budgets on
/// budget-capable engines (zero budget — pure bounds — once expired in
/// the queue) and shed queued work only on engines without an anytime
/// path, never truncating a running query; backpressure bounds the
/// in-flight set; and Drain()/Shutdown() are graceful.

#include "engine/query_scheduler.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/workload.h"
#include "engine/batch_executor.h"
#include "engine/engine_registry.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::AnswersBitIdentical;
using testing::ExpectAnswersBitIdentical;
using testing::RangeQueryOnDim;

std::unique_ptr<AqpSystem> MakeEngine(const Dataset& data,
                                      const std::string& name,
                                      size_t num_shards = 1) {
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.strategy = PartitionStrategy::kEqualDepth;
  config.num_shards = num_shards;
  config.seed = 42;
  auto engine = EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

std::vector<Query> MixedWorkload(const Dataset& data, size_t per_agg,
                                 uint64_t seed) {
  std::vector<Query> queries;
  for (const AggregateType agg :
       {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg,
        AggregateType::kMin, AggregateType::kMax}) {
    WorkloadOptions wl;
    wl.agg = agg;
    wl.count = per_agg;
    wl.seed = seed + static_cast<uint64_t>(agg);
    const auto batch = RandomRangeQueries(data, wl);
    queries.insert(queries.end(), batch.begin(), batch.end());
  }
  return queries;
}

/// An AqpSystem whose Answer blocks until released — the only way to pin
/// a query "running" or "queued" deterministically in a test.
class BlockingSystem : public AqpSystem {
 public:
  std::string Name() const override { return "blocking"; }
  SystemCosts Costs() const override { return {}; }

 protected:
  QueryAnswer AnswerImpl(const Query&, const AnswerOptions&) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    QueryAnswer answer;
    answer.estimate.value = 1.0;
    return answer;
  }

 public:

  void WaitUntilRunning(size_t n) const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return entered_ >= n; });
  }
  /// Bounded variant for tests where the query may legitimately never
  /// start (e.g. it raced a deadline): returns false on timeout instead
  /// of hanging the test binary.
  bool WaitUntilRunningFor(size_t n, std::chrono::milliseconds budget) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, budget,
                        [this, n] { return entered_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::atomic<size_t> entered_{0};
  bool released_ = false;
};

// ---------------------------------------------------------------------------
// Bit-identity: async answers == synchronous answers
// ---------------------------------------------------------------------------

TEST(QueryScheduler, EveryRegistryEngineMatchesSynchronousPath) {
  const Dataset data = MakeUniform(4000, /*seed=*/21, 1.0, 2.0);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 12;
  wl.seed = 1234;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  QueryScheduler scheduler(/*num_threads=*/4);
  for (const std::string& name : EngineRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<AqpSystem> engine = MakeEngine(data, name);
    std::vector<std::future<ScheduledAnswer>> futures;
    for (const Query& q : queries) {
      futures.push_back(scheduler.Submit(*engine, q));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      ScheduledAnswer got = futures[i].get();
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_GT(got.ticket, 0u);
      EXPECT_GE(got.queue_ms, 0.0);
      EXPECT_GE(got.run_ms, 0.0);
      ExpectAnswersBitIdentical(got.answer, engine->Answer(queries[i]));
    }
  }
}

/// The test_shard_batch pattern extended to the scheduler: sharded engines
/// at K in {1, 2, 4}, answered through a 4-worker scheduler where each
/// worker walks every shard of its query — bit-identical to the sequential
/// loop.
TEST(QueryScheduler, ShardedAnswersBitIdenticalAtK124) {
  const Dataset data = MakeIntelLike(8000, 110);
  const std::vector<Query> queries = MixedWorkload(data, 10, 31);
  QueryScheduler scheduler(/*num_threads=*/4);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    const std::unique_ptr<AqpSystem> engine =
        MakeEngine(data, "sharded_pass", shards);
    std::vector<QueryAnswer> sequential;
    for (const Query& q : queries) sequential.push_back(engine->Answer(q));

    std::vector<std::future<ScheduledAnswer>> futures;
    for (const Query& q : queries) {
      futures.push_back(scheduler.Submit(*engine, q));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("K=" + std::to_string(shards) + " query " +
                   std::to_string(i) + ": " + queries[i].ToString());
      ScheduledAnswer got = futures[i].get();
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ExpectAnswersBitIdentical(got.answer, sequential[i]);
    }
  }
}

/// Many concurrent producers multiplexed onto one scheduler over sharded
/// engines, each worker walking every shard of its query: no deadlock
/// under real contention, plus bit-identity per client.
TEST(QueryScheduler, ConcurrentClientsOverShardFanOutNoDeadlock) {
  const Dataset data = MakeIntelLike(6000, 77);
  const std::vector<Query> queries = MixedWorkload(data, 4, 53);
  QueryScheduler scheduler(/*num_threads=*/4);
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    const std::unique_ptr<AqpSystem> engine =
        MakeEngine(data, "sharded_pass", shards);
    std::vector<QueryAnswer> sequential;
    for (const Query& q : queries) sequential.push_back(engine->Answer(q));

    constexpr size_t kClients = 8;
    std::vector<std::thread> clients;
    std::atomic<size_t> mismatches{0};
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::future<ScheduledAnswer>> futures;
        for (size_t i = c % 2; i < queries.size(); ++i) {
          futures.push_back(scheduler.Submit(*engine, queries[i]));
        }
        size_t index = c % 2;
        for (auto& f : futures) {
          ScheduledAnswer got = f.get();
          if (!got.status.ok() ||
              !AnswersBitIdentical(got.answer, sequential[index])) {
            ++mismatches;
          }
          ++index;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(mismatches.load(), 0u) << "K=" << shards;
  }
}

TEST(QueryScheduler, BatchExecutorIsAThinWrapper) {
  const Dataset data = MakeIntelLike(6000, 78);
  const std::vector<Query> queries = MixedWorkload(data, 6, 59);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");

  const BatchExecutor executor(/*num_threads=*/3);
  const BatchResult batch = executor.Run(*engine, queries);
  ASSERT_EQ(batch.answers.size(), queries.size());
  EXPECT_EQ(executor.num_threads(), executor.scheduler().num_threads());

  // Direct scheduler submissions produce the exact same bits Run() did.
  std::vector<std::future<ScheduledAnswer>> futures;
  for (const Query& q : queries) {
    futures.push_back(executor.scheduler().Submit(*engine, q));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ScheduledAnswer got = futures[i].get();
    ASSERT_TRUE(got.status.ok());
    ExpectAnswersBitIdentical(got.answer, batch.answers[i]);
  }
}

TEST(QueryScheduler, CallbackOverloadDeliversTheSameBits) {
  const Dataset data = MakeUniform(3000, /*seed=*/5, 1.0, 2.0);
  WorkloadOptions wl;
  wl.count = 8;
  wl.seed = 97;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");

  QueryScheduler scheduler(/*num_threads=*/2);
  std::mutex mu;
  std::vector<ScheduledAnswer> delivered(queries.size());
  std::atomic<size_t> resolved{0};
  for (size_t i = 0; i < queries.size(); ++i) {
    scheduler.Submit(*engine, queries[i], SubmitOptions{},
                     [&, i](ScheduledAnswer answer) {
                       std::lock_guard<std::mutex> lock(mu);
                       delivered[i] = std::move(answer);
                       ++resolved;
                     });
  }
  scheduler.Drain();
  ASSERT_EQ(resolved.load(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(delivered[i].status.ok());
    ExpectAnswersBitIdentical(delivered[i].answer, engine->Answer(queries[i]));
  }
}

TEST(QueryScheduler, SurfacesScanThroughputDiagnostic) {
  const Dataset data = MakeUniform(4000, /*seed=*/11, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(), 0,
                                  1.2, 1.8);
  QueryScheduler scheduler(/*num_threads=*/1);
  ScheduledAnswer got = scheduler.Submit(*engine, q).get();
  ASSERT_TRUE(got.status.ok());
  if (got.answer.sample_rows_scanned > 0 && got.run_ms > 0.0) {
    // rows/sec is exactly the (rows, run_ms) observation the
    // deadline-pricing EWMA consumed, in human units.
    EXPECT_DOUBLE_EQ(
        got.scan_rows_per_sec,
        static_cast<double>(got.answer.sample_rows_scanned) * 1e3 /
            got.run_ms);
  } else {
    EXPECT_EQ(got.scan_rows_per_sec, 0.0);
  }
}

TEST(QueryScheduler, TicketsAreUniqueAndMonotonicPerSubmitter) {
  const Dataset data = MakeUniform(1000, /*seed=*/5, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "uniform");
  const Query q = MakeRangeQuery(AggregateType::kSum, 1.2, 1.8);
  QueryScheduler scheduler(/*num_threads=*/2);
  std::vector<std::future<ScheduledAnswer>> futures;
  for (size_t i = 0; i < 16; ++i) {
    futures.push_back(scheduler.Submit(*engine, q));
  }
  uint64_t last = 0;
  for (auto& f : futures) {
    const uint64_t ticket = f.get().ticket;
    EXPECT_GT(ticket, last);  // single submitter: strictly increasing
    last = ticket;
  }
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// Anytime path: a budget-capable engine whose query expired in the queue
/// is answered from bounds alone (zero budget) instead of shed — the
/// PR-3 shed policy now applies only to systems without an anytime path.
TEST(QueryScheduler, ExpiredQueuedAnytimeQueryAnswersFromBoundsAlone) {
  BlockingSystem blocker;
  const Dataset data = MakeIntelLike(6000, 41);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");
  ASSERT_TRUE(engine->SupportsBudget());
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(),
                                  0, 3137.0, 9421.0);

  QueryScheduler scheduler(/*num_threads=*/1);
  auto held = scheduler.Submit(blocker, q);  // occupies the only worker
  blocker.WaitUntilRunning(1);

  SubmitOptions expired;
  expired.deadline = std::chrono::milliseconds(0);
  auto overdue = scheduler.Submit(*engine, q, expired);

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  blocker.Release();

  const ScheduledAnswer result = overdue.get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.budget_total, 0u);
  EXPECT_EQ(result.budget_used, 0u);
  EXPECT_EQ(result.answer.sample_rows_scanned, 0u);

  // The zero-budget answer is deterministic (nothing is scanned, so the
  // seed is moot): it must match a direct zero-budget evaluation.
  AnswerOptions zero;
  zero.budget.max_scan_units = 0;
  ExpectAnswersBitIdentical(result.answer, engine->Answer(q, zero));
  if (result.answer.partial_leaves > 0) {
    EXPECT_TRUE(result.truncated);
    EXPECT_TRUE(result.answer.truncated);
  }
  ASSERT_TRUE(held.get().status.ok());
}

/// A budget-capable query dispatched inside a generous deadline gets a
/// finite budget large enough to do all its work: valid answer, no
/// truncation, and the budget accounting lines up.
TEST(QueryScheduler, DispatchedAnytimeQueryGetsFiniteBudget) {
  const Dataset data = MakeIntelLike(6000, 43);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(),
                                  0, 3137.0, 9421.0);
  QueryScheduler scheduler(/*num_threads=*/1);
  SubmitOptions generous;
  generous.deadline = std::chrono::milliseconds(60'000);
  const ScheduledAnswer result = scheduler.Submit(*engine, q, generous).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.budget_total, 0u);
  EXPECT_LE(result.budget_used, result.budget_total);
  EXPECT_EQ(result.budget_used, result.answer.sample_rows_scanned);
  EXPECT_FALSE(result.truncated);
  // Ample budget: every planned unit ran, so the estimate matches the
  // unbudgeted path bit for bit.
  ExpectAnswersBitIdentical(result.answer, engine->Answer(q));
}

/// Completed budget-capable queries feed the per-unit cost EWMA the
/// deadline-to-budget conversion is calibrated from. Calibration ignores
/// runs that scanned too few units to amortize the fixed walk overhead,
/// so the test engine samples heavily enough that every query clears the
/// observation threshold.
TEST(QueryScheduler, UnitCostCalibrationLearnsFromServedQueries) {
  const Dataset data = MakeIntelLike(6000, 47);
  EngineConfig config;
  config.sample_rate = 0.2;
  config.partitions = 8;
  config.strategy = PartitionStrategy::kEqualDepth;
  config.seed = 42;
  auto engine = EngineRegistry::Global().Create("pass", data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(),
                                  0, 3137.0, 9421.0);
  ASSERT_GE((*engine)->Answer(q).sample_rows_scanned, 64u)
      << "test query must clear the calibration threshold";

  SchedulerOptions options;
  options.num_threads = 2;
  QueryScheduler scheduler(options);
  const double initial = scheduler.CalibratedUnitCostMs();
  EXPECT_EQ(initial, options.calibration.initial_unit_cost_ms);

  std::vector<std::future<ScheduledAnswer>> futures;
  for (size_t i = 0; i < 8; ++i) {
    futures.push_back(scheduler.Submit(**engine, q));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());
  EXPECT_NE(scheduler.CalibratedUnitCostMs(), initial);
  EXPECT_GT(scheduler.CalibratedUnitCostMs(), 0.0);
}

TEST(QueryScheduler, QueuedQueryPastDeadlineIsShedUnrun) {
  BlockingSystem blocker;
  const Dataset data = MakeUniform(1000, /*seed=*/5, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "uniform");
  const Query q = MakeRangeQuery(AggregateType::kSum, 1.2, 1.8);

  QueryScheduler scheduler(/*num_threads=*/1);
  auto held = scheduler.Submit(blocker, q);  // occupies the only worker
  blocker.WaitUntilRunning(1);

  SubmitOptions expired;
  expired.deadline = std::chrono::milliseconds(0);
  auto shed = scheduler.Submit(*engine, q, expired);

  SubmitOptions generous;
  generous.deadline = std::chrono::milliseconds(60'000);
  auto kept = scheduler.Submit(*engine, q, generous);

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  blocker.Release();

  const ScheduledAnswer shed_result = shed.get();
  EXPECT_EQ(shed_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(shed_result.run_ms, 0.0);  // never ran
  EXPECT_GE(shed_result.queue_ms, 0.0);

  const ScheduledAnswer kept_result = kept.get();
  ASSERT_TRUE(kept_result.status.ok()) << kept_result.status.ToString();
  ExpectAnswersBitIdentical(kept_result.answer, engine->Answer(q));
  ASSERT_TRUE(held.get().status.ok());
}

TEST(QueryScheduler, RunningQueryIsNeverTruncatedByItsDeadline) {
  BlockingSystem blocker;
  const Query q = MakeRangeQuery(AggregateType::kSum, 0.0, 1.0);
  QueryScheduler scheduler(/*num_threads=*/1);
  // Dispatched onto an idle worker well inside its deadline, which then
  // expires while the query runs. Admission-to-dispatch policy: it still
  // completes with an answer.
  SubmitOptions options;
  options.deadline = std::chrono::milliseconds(200);
  auto future = scheduler.Submit(blocker, q, options);
  if (!blocker.WaitUntilRunningFor(1, std::chrono::milliseconds(10'000))) {
    // A pathologically loaded machine lost the dispatch race: the task
    // was shed while queued, which is the other half of the same policy.
    const ScheduledAnswer result = future.get();
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(result.run_ms, 0.0);
    return;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));  // > deadline
  blocker.Release();
  const ScheduledAnswer result = future.get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.answer.estimate.value, 1.0);
}

// ---------------------------------------------------------------------------
// Backpressure, Drain, Shutdown
// ---------------------------------------------------------------------------

TEST(QueryScheduler, BoundedQueueBlocksProducerUntilASlotFrees) {
  BlockingSystem blocker;
  const Query q = MakeRangeQuery(AggregateType::kSum, 0.0, 1.0);
  SchedulerOptions options;
  options.num_threads = 1;
  options.max_in_flight = 1;
  QueryScheduler scheduler(options);
  EXPECT_EQ(scheduler.max_in_flight(), 1u);

  auto first = scheduler.Submit(blocker, q);  // fills the only slot
  blocker.WaitUntilRunning(1);
  EXPECT_EQ(scheduler.InFlight(), 1u);

  std::atomic<bool> second_admitted{false};
  std::future<ScheduledAnswer> second;
  std::thread producer([&] {
    second = scheduler.Submit(blocker, q);  // must block on backpressure
    second_admitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_admitted.load()) << "Submit ignored max_in_flight";

  blocker.Release();  // first resolves -> slot frees -> producer unblocks
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  ASSERT_TRUE(first.get().status.ok());
  ASSERT_TRUE(second.get().status.ok());
}

TEST(QueryScheduler, DrainQuiescesAndKeepsAccepting) {
  const Dataset data = MakeUniform(2000, /*seed=*/7, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "uniform");
  const Query q = MakeRangeQuery(AggregateType::kSum, 1.1, 1.9);
  QueryScheduler scheduler(/*num_threads=*/2);
  std::vector<std::future<ScheduledAnswer>> futures;
  for (size_t i = 0; i < 32; ++i) {
    futures.push_back(scheduler.Submit(*engine, q));
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.InFlight(), 0u);
  for (auto& f : futures) {
    // Drained means resolved: the future is ready, no further waiting.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    ASSERT_TRUE(f.get().status.ok());
  }
  // A drain is a quiescence point, not a shutdown.
  ASSERT_TRUE(scheduler.Submit(*engine, q).get().status.ok());
}

TEST(QueryScheduler, ShutdownDrainsAdmittedWorkAndRejectsNew) {
  const Dataset data = MakeUniform(2000, /*seed=*/9, 1.0, 2.0);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "uniform");
  const Query q = MakeRangeQuery(AggregateType::kSum, 1.1, 1.9);
  QueryScheduler scheduler(/*num_threads=*/2);
  std::vector<std::future<ScheduledAnswer>> futures;
  for (size_t i = 0; i < 24; ++i) {
    futures.push_back(scheduler.Submit(*engine, q));
  }
  scheduler.Shutdown();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    ASSERT_TRUE(f.get().status.ok());  // graceful: admitted work completed
  }

  auto rejected = scheduler.Submit(*engine, q);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status.code(), StatusCode::kUnavailable);

  // The callback overload is told about the rejection too.
  std::atomic<bool> told{false};
  scheduler.Submit(*engine, q, SubmitOptions{}, [&](ScheduledAnswer answer) {
    EXPECT_EQ(answer.status.code(), StatusCode::kUnavailable);
    told = true;
  });
  EXPECT_TRUE(told.load());
  scheduler.Shutdown();  // idempotent
}

TEST(QueryScheduler, ShutdownUnblocksBackpressuredProducers) {
  BlockingSystem blocker;
  const Query q = MakeRangeQuery(AggregateType::kSum, 0.0, 1.0);
  SchedulerOptions options;
  options.num_threads = 1;
  options.max_in_flight = 1;
  QueryScheduler scheduler(options);

  auto first = scheduler.Submit(blocker, q);
  blocker.WaitUntilRunning(1);
  std::future<ScheduledAnswer> second;
  std::thread producer([&] { second = scheduler.Submit(blocker, q); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    blocker.Release();  // lets the admitted query finish draining
  });
  scheduler.Shutdown();  // must not deadlock on the blocked producer
  producer.join();
  releaser.join();
  ASSERT_TRUE(first.get().status.ok());
  EXPECT_EQ(second.get().status.code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// ThreadPool shutdown contract (the layer underneath)
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Progressive answering (AnswerUntil) and admission control
// ---------------------------------------------------------------------------

/// Streams refinements through the callback until the target CI width is
/// reached: intermediates carry is_final = false with strictly growing
/// spend, the final answer satisfies the stopping condition, and it is
/// bit-identical to a fresh budgeted run at the same cumulative budget.
TEST(QueryScheduler, AnswerUntilReachesTargetWidthStreamingIntermediates) {
  const Dataset data = MakeIntelLike(12000, 53);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(),
                                  0, 2500.0, 11321.0);
  // Any width the full evaluation achieves is a feasible target.
  const QueryAnswer full = engine->Answer(q);
  StoppingCondition condition;
  condition.confidence = 0.99;
  condition.target_ci_width = full.estimate.HalfWidth(2.576) * 1.25;
  ASSERT_GT(condition.target_ci_width, 0.0);
  condition.min_step_units = 32;  // many small steps -> real streaming

  QueryScheduler scheduler(/*num_threads=*/1);
  std::mutex mu;
  std::vector<ScheduledAnswer> stream;
  std::condition_variable cv;
  bool finished = false;
  scheduler.AnswerUntil(*engine, q, condition, {},
                        [&](ScheduledAnswer answer) {
                          std::lock_guard<std::mutex> lock(mu);
                          stream.push_back(std::move(answer));
                          if (stream.back().is_final) {
                            finished = true;
                            cv.notify_all();
                          }
                        });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return finished; });
  }
  ASSERT_FALSE(stream.empty());
  const ScheduledAnswer& last = stream.back();
  ASSERT_TRUE(last.status.ok()) << last.status.ToString();
  EXPECT_TRUE(last.is_final);
  EXPECT_LE(last.answer.estimate.HalfWidth(2.576),
            condition.target_ci_width);
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    EXPECT_FALSE(stream[i].is_final);
    EXPECT_EQ(stream[i].refinements, i);
    EXPECT_LE(stream[i].budget_used, stream[i + 1].budget_used);
  }
  // Resume-equals-restart at the scheduler level: the final progressive
  // answer matches a fresh budgeted run at the same cumulative budget and
  // ticket-derived seed.
  AnswerOptions fresh;
  fresh.budget.max_scan_units = last.budget_used;
  fresh.seed = last.ticket;
  ExpectAnswersBitIdentical(last.answer, engine->Answer(q, fresh));
}

/// A zero target width is never satisfied by refinement: the session
/// refines to exhaustion and the final answer is the full-evidence one.
TEST(QueryScheduler, AnswerUntilZeroTargetRefinesToExhaustion) {
  const Dataset data = MakeIntelLike(8000, 59);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");
  const Query q = RangeQueryOnDim(AggregateType::kAvg, data.NumPredDims(),
                                  0, 3137.0, 9421.0);
  QueryScheduler scheduler(/*num_threads=*/1);
  const ScheduledAnswer result =
      scheduler.AnswerUntil(*engine, q, StoppingCondition{}).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.is_final);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.budget_used, result.answer.sample_rows_scanned);
  // Progressive answers come from the fused session, so the reference is
  // the fused AVG (the rule-OFF frontier), not the single-aggregate path.
  AnswerOptions fresh;
  fresh.budget.max_scan_units = result.budget_used;
  fresh.seed = result.ticket;
  ExpectAnswersBitIdentical(result.answer,
                            engine->AnswerMulti(q.predicate, fresh).avg);
}

/// Systems without a resumable path — and aggregates outside the fused
/// SUM/COUNT/AVG set — answer once, in full, exactly as without `until`.
TEST(QueryScheduler, AnswerUntilWithoutAResumablePathAnswersOnceInFull) {
  const Dataset data = MakeIntelLike(6000, 61);
  QueryScheduler scheduler(/*num_threads=*/1);
  StoppingCondition condition;
  condition.target_ci_width = 1.0;

  const std::unique_ptr<AqpSystem> uniform = MakeEngine(data, "uniform");
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(),
                                  0, 3137.0, 9421.0);
  const ScheduledAnswer on_uniform =
      scheduler.AnswerUntil(*uniform, q, condition).get();
  ASSERT_TRUE(on_uniform.status.ok());
  EXPECT_TRUE(on_uniform.is_final);
  EXPECT_EQ(on_uniform.refinements, 0u);
  ExpectAnswersBitIdentical(on_uniform.answer, uniform->Answer(q));

  const std::unique_ptr<AqpSystem> pass = MakeEngine(data, "pass");
  const Query extrema = RangeQueryOnDim(
      AggregateType::kMin, data.NumPredDims(), 0, 3137.0, 9421.0);
  const ScheduledAnswer on_min =
      scheduler.AnswerUntil(*pass, extrema, condition).get();
  ASSERT_TRUE(on_min.status.ok());
  EXPECT_EQ(on_min.refinements, 0u);
  ExpectAnswersBitIdentical(on_min.answer, pass->Answer(extrema));
}

/// kRejectInfeasible sheds a budget-capable query only when even the
/// zero-budget answer would miss the deadline; a feasible deadline is
/// served normally, and the default policy still never sheds.
TEST(QueryScheduler, RejectInfeasibleShedsOnlyHopelessDeadlines) {
  const Dataset data = MakeIntelLike(6000, 67);
  const std::unique_ptr<AqpSystem> engine = MakeEngine(data, "pass");
  ASSERT_TRUE(engine->SupportsBudget());
  const Query q = RangeQueryOnDim(AggregateType::kSum, data.NumPredDims(),
                                  0, 3137.0, 9421.0);
  QueryScheduler scheduler(/*num_threads=*/1);

  // A zero deadline cannot cover even the fixed per-query overhead.
  SubmitOptions hopeless;
  hopeless.deadline = std::chrono::milliseconds(0);
  hopeless.admission = AdmissionPolicy::kRejectInfeasible;
  const ScheduledAnswer rejected =
      scheduler.Submit(*engine, q, hopeless).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rejected.run_ms, 0.0);  // never ran

  // The same deadline under the default policy still yields the
  // zero-budget bounds answer rather than an error.
  SubmitOptions lenient;
  lenient.deadline = std::chrono::milliseconds(0);
  const ScheduledAnswer bounds = scheduler.Submit(*engine, q, lenient).get();
  ASSERT_TRUE(bounds.status.ok()) << bounds.status.ToString();
  EXPECT_EQ(bounds.budget_total, 0u);

  // A generous deadline passes the admission gate and answers in full.
  SubmitOptions generous;
  generous.deadline = std::chrono::milliseconds(60'000);
  generous.admission = AdmissionPolicy::kRejectInfeasible;
  const ScheduledAnswer served =
      scheduler.Submit(*engine, q, generous).get();
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_GT(served.budget_total, 0u);
  ExpectAnswersBitIdentical(served.answer, engine->Answer(q));
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  for (int i = 0; i < 64; ++i) pool.Submit([&ran] { ++ran; });
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_TRUE(pool.IsShutdown());
  pool.Shutdown();  // idempotent
}

TEST(ThreadPool, SubmitAfterShutdownIsADefinedError) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<bool> ran{false};
#ifdef NDEBUG
  // Release: rejected task, returns false, never runs.
  EXPECT_FALSE(pool.Submit([&ran] { ran = true; }));
  EXPECT_FALSE(ran.load());
#else
  // Debug: loud assert instead of silent rejection.
  EXPECT_DEATH(pool.Submit([&ran] { ran = true; }),
               "Submit after Shutdown");
#endif
}

}  // namespace
}  // namespace pass
