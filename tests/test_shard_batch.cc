/// Regression for the sharded serving path: answers for sharded engines
/// must stay bit-for-bit identical no matter how the work is scheduled —
/// a 1-worker vs. a 4-worker QueryScheduler. Index-addressed results plus
/// deterministic merges make every worker count equal; this test pins
/// that.

#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "engine/query_scheduler.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::ExpectAnswersBitIdentical;

std::unique_ptr<AqpSystem> MakeSharded(const Dataset& data, size_t shards) {
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 32;
  config.strategy = PartitionStrategy::kEqualDepth;
  config.num_shards = shards;
  auto engine = EngineRegistry::Global().Create("sharded_pass", data, config);
  PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

std::vector<Query> Workload(const Dataset& data) {
  std::vector<Query> queries;
  for (const AggregateType agg :
       {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg,
        AggregateType::kMin, AggregateType::kMax}) {
    WorkloadOptions wl;
    wl.agg = agg;
    wl.count = 15;
    wl.seed = 31 + static_cast<uint64_t>(agg);
    const auto batch = RandomRangeQueries(data, wl);
    queries.insert(queries.end(), batch.begin(), batch.end());
  }
  return queries;
}

/// Submits every query, then collects the answers in submission order.
std::vector<QueryAnswer> Serve(QueryScheduler& scheduler,
                               const AqpSystem& engine,
                               const std::vector<Query>& queries) {
  std::vector<std::future<ScheduledAnswer>> futures;
  for (const Query& q : queries) futures.push_back(scheduler.Submit(engine, q));
  std::vector<QueryAnswer> answers;
  for (auto& f : futures) {
    ScheduledAnswer got = f.get();
    EXPECT_TRUE(got.status.ok()) << got.status.ToString();
    answers.push_back(std::move(got.answer));
  }
  return answers;
}

TEST(ShardedBatch, SequentialAndParallelPoolsAnswerIdentically) {
  const Dataset data = MakeIntelLike(12000, 110);
  const std::vector<Query> queries = Workload(data);
  QueryScheduler sequential(/*num_threads=*/1);
  QueryScheduler parallel(/*num_threads=*/4);
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    const std::unique_ptr<AqpSystem> engine = MakeSharded(data, shards);
    const std::vector<QueryAnswer> seq = Serve(sequential, *engine, queries);
    const std::vector<QueryAnswer> par = Serve(parallel, *engine, queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("K=" + std::to_string(shards) + " query " +
                   std::to_string(i) + ": " + queries[i].ToString());
      ExpectAnswersBitIdentical(seq[i], par[i]);
    }
  }
}

TEST(ShardedBatch, EnsembleIsDeterministicAcrossPools) {
  const Dataset data = MakeTaxiLike(8000, 112).WithPredDims(2);
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.ensemble_templates = {{0}, {1}, {0, 1}};
  auto engine = EngineRegistry::Global().Create("ensemble", data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  WorkloadOptions wl;
  wl.count = 40;
  wl.template_dims = {0, 1};
  wl.seed = 113;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  QueryScheduler sequential(/*num_threads=*/1);
  QueryScheduler parallel(/*num_threads=*/4);
  const std::vector<QueryAnswer> seq = Serve(sequential, **engine, queries);
  const std::vector<QueryAnswer> par = Serve(parallel, **engine, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectAnswersBitIdentical(seq[i], par[i]);
  }
}

}  // namespace
}  // namespace pass
