/// Sharded serving tour: split one dataset across K PASS synopses, answer
/// the same workload through the "sharded_pass" engine at growing shard
/// counts, and watch the merge algebra at work — merged estimates, summed
/// variances and combined hard bounds.
///
/// The workload is served through the QueryScheduler (submit all futures,
/// wait all), so the sweep exercises the same async core a server
/// front-end uses; each scheduler worker answers every shard of its query.
///
/// Usage: sharded_serving [rows] [queries] [max_shards]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/stopwatch.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/batch_executor.h"
#include "engine/engine_registry.h"
#include "engine/query_scheduler.h"
#include "harness/metrics.h"
#include "harness/table_printer.h"

namespace {

size_t ParseArg(const char* arg, const char* name, size_t min, size_t max) {
  const std::optional<size_t> value = pass::ParseNonNegative(arg, max);
  if (!value || *value < min) {
    std::fprintf(stderr,
                 "invalid %s \"%s\" (expected an integer in [%zu, %zu])\n"
                 "usage: sharded_serving [rows] [queries] [max_shards]\n",
                 name, arg, min, max);
    std::exit(2);
  }
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pass;

  const size_t rows =
      argc > 1 ? ParseArg(argv[1], "rows", 1000, 100'000'000) : 300'000;
  const size_t num_queries =
      argc > 2 ? ParseArg(argv[2], "queries", 1, 1'000'000) : 200;
  const size_t max_shards =
      argc > 3 ? ParseArg(argv[3], "max_shards", 1, 1024) : 8;

  const Dataset data = MakeTaxiDatetime(rows, /*seed=*/77);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = num_queries;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  const std::vector<ExactResult> truths = ComputeGroundTruth(data, queries);

  EngineConfig config;
  config.sample_rate = 0.005;
  config.partitions = 64;
  QueryScheduler& scheduler = QueryScheduler::Shared(/*num_threads=*/0);

  std::printf(
      "sharding %zu rows, serving %zu queries per shard count "
      "(%zu scheduler threads)\n\n",
      data.NumRows(), queries.size(), scheduler.num_threads());

  // 1) The sweep: same budget, more shards, served asynchronously —
  //    submit every query as a future, then wait on them all.
  TablePrinter table({"shards", "build_s", "p50_ms", "p95_ms",
                      "median_rel_err", "batch_qps"});
  for (size_t k = 1; k <= max_shards; k *= 2) {
    config.num_shards = k;
    auto engine =
        EngineRegistry::Global().Create("sharded_pass", data, config);
    if (!engine.ok()) {
      std::fprintf(stderr, "sharded_pass: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    BatchResult batch;
    batch.num_threads = scheduler.num_threads();
    batch.answers.resize(queries.size());
    batch.latency_ms.resize(queries.size());
    std::vector<std::future<ScheduledAnswer>> futures;
    futures.reserve(queries.size());
    Stopwatch wall;
    for (const Query& q : queries) {
      futures.push_back(scheduler.Submit(**engine, q));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      ScheduledAnswer answer = futures[i].get();
      if (!answer.status.ok()) {
        std::fprintf(stderr, "query %zu: %s\n", i,
                     answer.status.ToString().c_str());
        return 1;
      }
      batch.answers[i] = answer.answer;
      batch.latency_ms[i] = answer.run_ms;
    }
    batch.wall_ms = wall.ElapsedMillis();
    const BatchErrorSummary err = BatchExecutor::Score(batch, truths);
    table.AddRow({std::to_string(k),
                  FormatDouble((*engine)->Costs().build_seconds, 3),
                  FormatDouble(LatencyQuantileMs(batch, 0.5), 4),
                  FormatDouble(LatencyQuantileMs(batch, 0.95), 4),
                  FormatDouble(err.median_rel_error, 4),
                  FormatDouble(batch.Throughput(), 6)});
  }
  table.Print();

  // 2) One merged answer under the microscope.
  config.num_shards = std::max<size_t>(2, max_shards / 2);
  auto engine =
      EngineRegistry::Global().Create("sharded_pass", data, config);
  if (!engine.ok()) return 1;
  const Query q = queries.front();
  const QueryAnswer merged = (*engine)->Answer(q);
  const ExactResult truth = truths.front();
  std::printf("\nquery: %s\n", q.ToString().c_str());
  std::printf("truth:           %.6g\n", truth.value);
  std::printf("merged estimate: %.6g  (99%% CI half-width %.6g)\n",
              merged.estimate.value, merged.estimate.HalfWidth(kLambda99));
  if (merged.hard_lb && merged.hard_ub) {
    std::printf("merged hard bounds: [%.6g, %.6g]\n", *merged.hard_lb,
                *merged.hard_ub);
  }
  std::printf("skip rate across shards: %.1f%%\n", 100.0 * merged.SkipRate());
  return 0;
}
