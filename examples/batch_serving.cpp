/// AqpEngine tour: build every registered engine by name from one shared
/// EngineConfig, then serve the same query batch through EvaluateSystem
/// (a multi-worker QueryScheduler) and compare accuracy/latency/throughput.
/// This is the serving-layer entry point later scaling work (sharding,
/// caching, async) builds on.
///
/// Usage: batch_serving [rows] [queries] [threads]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "harness/metrics.h"
#include "harness/table_printer.h"

namespace {

/// Strict bounded parse; anything else (garbage, negatives, overflow, out
/// of range) exits with usage instead of wrapping to a huge size_t or
/// tripping a PASS_CHECK deep inside a generator.
size_t ParseArg(const char* arg, const char* name, size_t min, size_t max) {
  const std::optional<size_t> value = pass::ParseNonNegative(arg, max);
  if (!value || *value < min) {
    std::fprintf(stderr,
                 "invalid %s \"%s\" (expected an integer in [%zu, %zu])\n"
                 "usage: batch_serving [rows] [queries] [threads]\n",
                 name, arg, min, max);
    std::exit(2);
  }
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pass;

  const size_t rows =
      argc > 1 ? ParseArg(argv[1], "rows", 1, 100'000'000) : 200'000;
  const size_t num_queries =
      argc > 2 ? ParseArg(argv[2], "queries", 1, 1'000'000) : 200;
  size_t threads =
      argc > 3 ? ParseArg(argv[3], "threads", 0, kMaxThreadArg) : 0;
  if (threads == 0) {  // one worker per hardware thread
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  const Dataset data = MakeTaxiDatetime(rows, /*seed=*/77);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = num_queries;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);

  // Ground truth once, shared by every engine's error report.
  EngineConfig config;
  config.sample_rate = 0.005;
  config.partitions = 64;
  EvalOptions eval;
  eval.num_threads = threads;
  const std::vector<ExactResult> truths = ComputeGroundTruth(data, queries);

  std::printf("serving %zu queries over %zu rows with %zu threads\n\n",
              queries.size(), data.NumRows(), threads);

  TablePrinter table(
      {"engine", "p50_ms", "p95_ms", "median_rel_err", "batch_qps"});
  for (const std::string& name : EngineRegistry::Global().Names()) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   engine.status().ToString().c_str());
      return 1;
    }
    const RunSummary summary = EvaluateSystem(**engine, queries, truths, eval);
    table.AddRow({name, FormatDouble(summary.p50_latency_ms, 4),
                  FormatDouble(summary.p95_latency_ms, 4),
                  FormatDouble(summary.median_rel_error, 4),
                  FormatDouble(summary.batch_qps, 6)});
  }
  table.Print();
  return 0;
}
