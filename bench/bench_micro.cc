/// Serving-path micro benchmark: every registered engine answers the same
/// workload through the BatchExecutor. Reports per-method build time, p50 /
/// p95 query latency, relative error, and batch throughput at one thread
/// vs. the full pool, plus kernel timings (MCF index walk, synopsis
/// construction, streaming insert) backing the complexity claims of
/// Sections 3.2 and 4.5. Writes the machine-readable BENCH_micro.json the
/// CI pipeline uploads to track the perf trajectory across PRs.
///
/// PASS_BENCH_SCALE scales the dataset/workload (see bench_common.h);
/// PASS_BENCH_JSON overrides the JSON output path.

#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cache/semantic_answer_cache.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/query_scheduler.h"
#include "kernel/scan_kernel.h"
#include "stats/quantile.h"

namespace pass::bench {
namespace {

struct MethodRow {
  std::string method;
  double build_seconds = 0.0;
  uint64_t storage_bytes = 0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double median_rel_error = 0.0;
  double p95_rel_error = 0.0;
  double qps_sequential = 0.0;
  double qps_parallel = 0.0;
  /// Kernel rows only: per-operation rate derived from the median op cost.
  /// Kept separate from qps_sequential (batch wall-clock throughput) so
  /// the two are never compared under one key in the artifact.
  double ops_per_sec = 0.0;
  /// Kernel-sweep rows only: scan throughput at the median per-op cost
  /// (rows per second through the scan kernel). 0 elsewhere.
  double rows_per_sec = 0.0;
  /// Anytime-sweep rows only: median CI half-width (lambda = 2.576) of the
  /// SUM answers at this budget level — the accuracy axis of the
  /// latency-vs-width trade the budget buys. 0 elsewhere.
  double median_ci_width = 0.0;
  /// Progressive-sweep rows only: total scan units spent per query to walk
  /// the whole budget ladder — the work axis CI asserts on (resume must
  /// spend strictly less than restart). 0 elsewhere.
  uint64_t scan_units = 0;
  size_t parallel_threads = 1;
};

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// True when all five ScanStats fields carry the same bit patterns: the
/// kernel sweeps check this before timing, so a faster variant can never
/// be a wrong one.
bool SameScanBits(const ScanStats& a, const ScanStats& b) {
  return a.matched == b.matched && Bits(a.sum) == Bits(b.sum) &&
         Bits(a.sum_sq) == Bits(b.sum_sq) && Bits(a.min) == Bits(b.min) &&
         Bits(a.max) == Bits(b.max);
}

std::string JsonPath() {
  const char* env = std::getenv("PASS_BENCH_JSON");
  return env != nullptr ? env : "BENCH_micro.json";
}

/// Times `samples` batches of `ops_per_sample` calls to the single-op
/// callable and returns per-operation latencies in ms. Inner repetition
/// keeps each sample well above clock resolution for sub-microsecond
/// kernels.
std::vector<double> TimeKernel(size_t samples, size_t ops_per_sample,
                               const std::function<void()>& op) {
  std::vector<double> per_op_ms;
  per_op_ms.reserve(samples);
  for (size_t s = 0; s < samples; ++s) {
    Stopwatch timer;
    for (size_t i = 0; i < ops_per_sample; ++i) op();
    per_op_ms.push_back(timer.ElapsedMillis() /
                        static_cast<double>(ops_per_sample));
  }
  return per_op_ms;
}

/// Kernel rows reuse the method-row shape so the JSON stays one flat
/// array; error/storage fields are zero (kernels have no estimate).
MethodRow KernelRow(const std::string& name, std::vector<double> per_op_ms) {
  MethodRow row;
  row.method = "kernel:" + name;
  row.p50_latency_ms = Quantile(per_op_ms, 0.5);
  row.p95_latency_ms = Quantile(per_op_ms, 0.95);
  // ops/sec from the median per-op cost (robust to warm-up jitter).
  row.ops_per_sec = row.p50_latency_ms > 0.0 ? 1e3 / row.p50_latency_ms : 0.0;
  return row;
}

void WriteJson(const std::string& path, const std::vector<MethodRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PASS_CHECK_MSG(f != nullptr,
                 ("cannot open " + path + " for writing").c_str());
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MethodRow& r = rows[i];
    std::fprintf(f,
                 "  {\"method\": \"%s\", \"build_seconds\": %.6f, "
                 "\"storage_bytes\": %llu, \"p50_latency_ms\": %.6f, "
                 "\"p95_latency_ms\": %.6f, \"median_rel_error\": %.6g, "
                 "\"p95_rel_error\": %.6g, \"qps_sequential\": %.1f, "
                 "\"qps_parallel\": %.1f, \"ops_per_sec\": %.1f, "
                 "\"rows_per_sec\": %.1f, "
                 "\"median_ci_width\": %.6g, \"scan_units\": %llu, "
                 "\"parallel_threads\": %zu}%s\n",
                 r.method.c_str(), r.build_seconds,
                 static_cast<unsigned long long>(r.storage_bytes),
                 r.p50_latency_ms, r.p95_latency_ms, r.median_rel_error,
                 r.p95_rel_error, r.qps_sequential, r.qps_parallel,
                 r.ops_per_sec, r.rows_per_sec, r.median_ci_width,
                 static_cast<unsigned long long>(r.scan_units),
                 r.parallel_threads, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  // A truncated artifact must fail the run, not get uploaded by CI.
  PASS_CHECK_MSG(std::fclose(f) == 0,
                 ("error flushing " + path).c_str());
}

}  // namespace
}  // namespace pass::bench

int main() {
  using namespace pass;
  using namespace pass::bench;

  const Dataset data = MakeTaxiDatetime(TaxiRows(), 77);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = NumQueries();
  wl.seed = 7;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  const std::vector<ExactResult> truths = ComputeGroundTruth(data, queries);

  EngineConfig config;
  config.sample_rate = kSampleRate;
  config.partitions = kPartitions;

  const BatchExecutor& sequential = BatchExecutor::Shared(/*num_threads=*/1);
  const BatchExecutor& parallel = BatchExecutor::Shared(/*num_threads=*/0);

  std::vector<MethodRow> rows;
  TablePrinter table({"method", "build_s", "p50_ms", "p95_ms", "med_rel_err",
                      "qps_1t", "qps_mt"});
  for (const std::string& name : EngineRegistry::Global().Names()) {
    const std::unique_ptr<AqpSystem> engine =
        MustMakeEngine(name, data, config);

    // Untimed warm-up so the sequential-vs-parallel comparison is not
    // biased by first-touch page-ins landing on whichever runs first.
    (void)sequential.Run(*engine, queries);
    const BatchResult seq = sequential.Run(*engine, queries);
    const BatchResult par = parallel.Run(*engine, queries);
    const BatchErrorSummary err = BatchExecutor::Score(seq, truths);
    const SystemCosts costs = engine->Costs();

    MethodRow row;
    row.method = name;
    row.build_seconds = costs.build_seconds;
    row.storage_bytes = costs.storage_bytes;
    row.p50_latency_ms = LatencyQuantileMs(seq, 0.5);
    row.p95_latency_ms = LatencyQuantileMs(seq, 0.95);
    row.median_rel_error = err.median_rel_error;
    row.p95_rel_error = err.p95_rel_error;
    row.qps_sequential = seq.Throughput();
    row.qps_parallel = par.Throughput();
    row.parallel_threads = par.num_threads;
    rows.push_back(row);

    table.AddRow({name, FormatDouble(row.build_seconds, 3),
                  FormatDouble(row.p50_latency_ms, 4),
                  FormatDouble(row.p95_latency_ms, 4),
                  FormatDouble(row.median_rel_error, 4),
                  FormatDouble(row.qps_sequential, 6),
                  FormatDouble(row.qps_parallel, 6)});
  }
  table.Print();

  // Shard-count sweep: the same workload through "sharded_pass" at growing
  // K under a fair-total budget, so the artifact tracks what sharding buys
  // (smaller per-shard scans) and costs (merge overhead, per-shard
  // variance addition) across PRs. K=1 is not re-benchmarked:
  // the registry loop above already measured "sharded_pass" at its default
  // num_shards=1, and that row doubles as the sweep baseline (the CI
  // artifact slice keys on the "sharded_pass" prefix).
  TablePrinter shard_table({"shards", "build_s", "p50_ms", "p95_ms",
                            "med_rel_err", "qps_1t", "qps_mt"});
  for (const MethodRow& r : rows) {
    if (r.method == "sharded_pass") {
      shard_table.AddRow({"1 (above)", FormatDouble(r.build_seconds, 3),
                          FormatDouble(r.p50_latency_ms, 4),
                          FormatDouble(r.p95_latency_ms, 4),
                          FormatDouble(r.median_rel_error, 4),
                          FormatDouble(r.qps_sequential, 6),
                          FormatDouble(r.qps_parallel, 6)});
    }
  }
  for (const size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    EngineConfig shard_config = config;
    shard_config.num_shards = k;
    const std::unique_ptr<AqpSystem> engine =
        MustMakeEngine("sharded_pass", data, shard_config);
    (void)sequential.Run(*engine, queries);
    const BatchResult seq = sequential.Run(*engine, queries);
    const BatchResult par = parallel.Run(*engine, queries);
    const BatchErrorSummary err = BatchExecutor::Score(seq, truths);
    const SystemCosts costs = engine->Costs();

    MethodRow row;
    char method[32];
    std::snprintf(method, sizeof(method), "sharded_pass_k%zu", k);
    row.method = method;
    row.build_seconds = costs.build_seconds;
    row.storage_bytes = costs.storage_bytes;
    row.p50_latency_ms = LatencyQuantileMs(seq, 0.5);
    row.p95_latency_ms = LatencyQuantileMs(seq, 0.95);
    row.median_rel_error = err.median_rel_error;
    row.p95_rel_error = err.p95_rel_error;
    row.qps_sequential = seq.Throughput();
    row.qps_parallel = par.Throughput();
    row.parallel_threads = par.num_threads;
    rows.push_back(row);

    shard_table.AddRow({std::to_string(k), FormatDouble(row.build_seconds, 3),
                        FormatDouble(row.p50_latency_ms, 4),
                        FormatDouble(row.p95_latency_ms, 4),
                        FormatDouble(row.median_rel_error, 4),
                        FormatDouble(row.qps_sequential, 6),
                        FormatDouble(row.qps_parallel, 6)});
  }
  std::printf("\nsharded_pass shard-count sweep:\n");
  shard_table.Print();

  // Async concurrent-client sweep: N client threads multiplex one shared
  // QueryScheduler over a sharded engine at K in {2, 4}, so the artifact
  // tracks how serving throughput scales with client concurrency.
  // Per-client work is fixed, so total work grows with the client count
  // and qps measures multiplexing, not batching.
  TablePrinter async_table(
      {"clients", "shards", "p50_ms", "p95_ms", "qps", "threads"});
  {
    QueryScheduler& scheduler = QueryScheduler::Shared(/*num_threads=*/0);
    const size_t per_client = std::max<size_t>(NumQueries() / 8, 16);
    for (const size_t k : {size_t{2}, size_t{4}}) {
      EngineConfig shard_config = config;
      shard_config.num_shards = k;
      const std::unique_ptr<AqpSystem> engine =
          MustMakeEngine("sharded_pass", data, shard_config);
      for (const size_t clients : {size_t{1}, size_t{8}, size_t{64}}) {
        std::vector<std::vector<double>> client_run_ms(clients);
        Stopwatch wall;
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (size_t c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            std::vector<std::future<ScheduledAnswer>> futures;
            futures.reserve(per_client);
            for (size_t i = 0; i < per_client; ++i) {
              futures.push_back(scheduler.Submit(
                  *engine, queries[(c + i) % queries.size()]));
            }
            for (auto& f : futures) {
              ScheduledAnswer answer = f.get();
              PASS_CHECK_MSG(answer.status.ok(),
                             answer.status.ToString().c_str());
              client_run_ms[c].push_back(answer.run_ms);
            }
          });
        }
        for (std::thread& t : threads) t.join();
        const double wall_ms = wall.ElapsedMillis();

        std::vector<double> run_ms;
        for (const auto& per : client_run_ms) {
          run_ms.insert(run_ms.end(), per.begin(), per.end());
        }
        MethodRow row;
        char method[48];
        std::snprintf(method, sizeof(method), "async_sweep_c%zu_k%zu",
                      clients, k);
        row.method = method;
        row.p50_latency_ms = Quantile(run_ms, 0.5);
        row.p95_latency_ms = Quantile(run_ms, 0.95);
        row.qps_parallel =
            wall_ms > 0.0
                ? static_cast<double>(run_ms.size()) / (wall_ms / 1e3)
                : 0.0;
        row.parallel_threads = scheduler.num_threads();
        rows.push_back(row);

        async_table.AddRow({std::to_string(clients), std::to_string(k),
                            FormatDouble(row.p50_latency_ms, 4),
                            FormatDouble(row.p95_latency_ms, 4),
                            FormatDouble(row.qps_parallel, 6),
                            std::to_string(row.parallel_threads)});
      }
    }
  }
  std::printf("\nasync concurrent-client sweep (QueryScheduler):\n");
  async_table.Print();

  // Semantic-answer-cache sweep: a repeat-heavy workload served through
  // one shared QueryScheduler over a cache-enabled "pass" engine at
  // clients in {1, 8, 64}. Three passes per client count over the same
  // distinct-query set: cold (first touch on a fresh engine — cache
  // misses), warm (immediate second pass — hits), hot (third pass —
  // steady state). CI asserts warm-hit p50 < cold p50 per client count.
  TablePrinter cache_table({"clients", "pass", "p50_ms", "p95_ms", "qps"});
  {
    QueryScheduler& scheduler = QueryScheduler::Shared(/*num_threads=*/0);
    const size_t per_client = std::max<size_t>(NumQueries() / 8, 16);
    for (const size_t clients : {size_t{1}, size_t{8}, size_t{64}}) {
      // Each client owns a disjoint slice of a dedicated query pool, so
      // the cold pass is all first touches (no client warms another's
      // slice) and the warm/hot passes are all hits.
      WorkloadOptions cache_wl;
      cache_wl.agg = AggregateType::kSum;
      cache_wl.count = clients * per_client;
      cache_wl.seed = 23 + clients;
      const std::vector<Query> pool = RandomRangeQueries(data, cache_wl);

      EngineConfig cache_config = config;
      cache_config.cache.enabled = true;
      cache_config.cache.max_exact_entries = pool.size();  // no eviction
      const std::unique_ptr<AqpSystem> engine =
          MustMakeEngine("pass", data, cache_config);
      PASS_CHECK(engine->AnswerCache() != nullptr);
      for (const char* pass_name : {"cold", "warm", "hot"}) {
        std::vector<std::vector<double>> client_run_ms(clients);
        Stopwatch wall;
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (size_t c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            std::vector<std::future<ScheduledAnswer>> futures;
            futures.reserve(per_client);
            for (size_t i = 0; i < per_client; ++i) {
              futures.push_back(
                  scheduler.Submit(*engine, pool[c * per_client + i]));
            }
            for (auto& f : futures) {
              ScheduledAnswer answer = f.get();
              PASS_CHECK_MSG(answer.status.ok(),
                             answer.status.ToString().c_str());
              client_run_ms[c].push_back(answer.run_ms);
            }
          });
        }
        for (std::thread& t : threads) t.join();
        const double wall_ms = wall.ElapsedMillis();

        std::vector<double> run_ms;
        for (const auto& per : client_run_ms) {
          run_ms.insert(run_ms.end(), per.begin(), per.end());
        }
        MethodRow row;
        char method[48];
        std::snprintf(method, sizeof(method), "cache_sweep_%s_c%zu",
                      pass_name, clients);
        row.method = method;
        row.p50_latency_ms = Quantile(run_ms, 0.5);
        row.p95_latency_ms = Quantile(run_ms, 0.95);
        row.qps_parallel =
            wall_ms > 0.0
                ? static_cast<double>(run_ms.size()) / (wall_ms / 1e3)
                : 0.0;
        row.parallel_threads = scheduler.num_threads();
        rows.push_back(row);

        cache_table.AddRow({std::to_string(clients), pass_name,
                            FormatDouble(row.p50_latency_ms, 4),
                            FormatDouble(row.p95_latency_ms, 4),
                            FormatDouble(row.qps_parallel, 6)});
      }
      // The passes did what their labels claim: the cold pass missed once
      // per pooled query, the warm and hot passes hit twice each.
      const CacheStats stats = engine->AnswerCache()->Stats();
      PASS_CHECK(stats.exact_misses == pool.size());
      PASS_CHECK(stats.exact_hits == 2 * pool.size());
    }
  }
  std::printf("\nsemantic-cache cold/warm/hot sweep (QueryScheduler):\n");
  cache_table.Print();

  // Fused-vs-triple AVG sweep: serving SUM+COUNT+AVG for one predicate
  // through a single AnswerMulti call (one synopsis evaluation per
  // shard) versus three per-aggregate Answer calls as they are issued
  // today (three evaluations per shard — note the AVG leg is itself
  // fused internally, so this *understates* the pre-fusion cost, which
  // was five evaluations per shard for all three aggregates). The fused
  // p50 must beat the triple baseline at K >= 2.
  TablePrinter fused_table({"shards", "fused_p50_ms", "fused_p95_ms",
                            "triple_p50_ms", "triple_p95_ms", "speedup"});
  {
    WorkloadOptions avg_wl;
    avg_wl.agg = AggregateType::kAvg;
    avg_wl.count = NumQueries();
    avg_wl.seed = 7;
    const std::vector<Query> avg_queries = RandomRangeQueries(data, avg_wl);
    for (const size_t k :
         {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      EngineConfig shard_config = config;
      shard_config.num_shards = k;
      const std::unique_ptr<AqpSystem> engine =
          MustMakeEngine("sharded_pass", data, shard_config);

      std::vector<double> fused_ms;
      std::vector<double> triple_ms;
      fused_ms.reserve(avg_queries.size());
      triple_ms.reserve(avg_queries.size());
      for (const Query& q : avg_queries) {  // untimed warm-up
        (void)engine->AnswerMulti(q.predicate);
      }
      for (const Query& q : avg_queries) {
        Stopwatch timer;
        (void)engine->AnswerMulti(q.predicate);
        fused_ms.push_back(timer.ElapsedMillis());
      }
      for (Query q : avg_queries) {
        Stopwatch timer;
        q.agg = AggregateType::kSum;
        (void)engine->Answer(q);
        q.agg = AggregateType::kCount;
        (void)engine->Answer(q);
        q.agg = AggregateType::kAvg;
        (void)engine->Answer(q);
        triple_ms.push_back(timer.ElapsedMillis());
      }

      MethodRow fused_row;
      char method[32];
      std::snprintf(method, sizeof(method), "fused_avg_k%zu", k);
      fused_row.method = method;
      fused_row.p50_latency_ms = Quantile(fused_ms, 0.5);
      fused_row.p95_latency_ms = Quantile(fused_ms, 0.95);
      rows.push_back(fused_row);

      MethodRow triple_row;
      std::snprintf(method, sizeof(method), "triple_avg_k%zu", k);
      triple_row.method = method;
      triple_row.p50_latency_ms = Quantile(triple_ms, 0.5);
      triple_row.p95_latency_ms = Quantile(triple_ms, 0.95);
      rows.push_back(triple_row);

      const double speedup =
          fused_row.p50_latency_ms > 0.0
              ? triple_row.p50_latency_ms / fused_row.p50_latency_ms
              : 0.0;
      fused_table.AddRow({std::to_string(k),
                          FormatDouble(fused_row.p50_latency_ms, 4),
                          FormatDouble(fused_row.p95_latency_ms, 4),
                          FormatDouble(triple_row.p50_latency_ms, 4),
                          FormatDouble(triple_row.p95_latency_ms, 4),
                          FormatDouble(speedup, 2)});
    }
  }
  std::printf("\nfused-vs-triple AVG sweep (AnswerMulti):\n");
  fused_table.Print();

  // Anytime budget sweep: the same SUM workload answered through the
  // budgeted AnswerMulti at {25, 50, 100}% of each query's plan cost, at
  // K in {1, 4}. Tracks both axes of the anytime trade across PRs: p50
  // latency must fall with the budget (CI asserts 25% < 100%) while the
  // median CI half-width reports what that latency buys. Per-query plan
  // costs come from an untimed unbudgeted warm-up pass; each timed sample
  // repeats the call so the 25-vs-100 delta stays above clock noise.
  TablePrinter anytime_table({"shards", "budget", "p50_ms", "p95_ms",
                              "med_ci_width"});
  {
    constexpr size_t kRepeat = 4;
    for (const size_t k : {size_t{1}, size_t{4}}) {
      EngineConfig shard_config = config;
      shard_config.num_shards = k;
      // 4x the paper's sampling budget: the sweep measures what budgeting
      // the scan buys, so the scan — not walk/split overhead — must carry
      // the latency (it also makes the 25-vs-100 delta robustly visible).
      shard_config.sample_rate = 4 * kSampleRate;
      const std::unique_ptr<AqpSystem> engine =
          MustMakeEngine("sharded_pass", data, shard_config);
      std::vector<uint64_t> plans;
      plans.reserve(queries.size());
      for (const Query& q : queries) {  // untimed warm-up + plan pricing
        plans.push_back(
            engine->AnswerMulti(q.predicate).sum.scan_units_planned);
      }
      for (const unsigned pct : {25u, 50u, 100u}) {
        std::vector<double> per_ms;
        std::vector<double> widths;
        per_ms.reserve(queries.size());
        widths.reserve(queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          AnswerOptions options;
          options.budget.max_scan_units = plans[i] * pct / 100;
          options.seed = i;
          Stopwatch timer;
          for (size_t r = 0; r < kRepeat; ++r) {
            (void)engine->AnswerMulti(queries[i].predicate, options);
          }
          per_ms.push_back(timer.ElapsedMillis() /
                           static_cast<double>(kRepeat));
          widths.push_back(engine->AnswerMulti(queries[i].predicate, options)
                               .sum.estimate.HalfWidth(kLambda));
        }
        MethodRow row;
        char method[32];
        std::snprintf(method, sizeof(method), "anytime_b%u_k%zu", pct, k);
        row.method = method;
        row.p50_latency_ms = Quantile(per_ms, 0.5);
        row.p95_latency_ms = Quantile(per_ms, 0.95);
        row.median_ci_width = Quantile(widths, 0.5);
        rows.push_back(row);

        anytime_table.AddRow({std::to_string(k), std::to_string(pct) + "%",
                              FormatDouble(row.p50_latency_ms, 4),
                              FormatDouble(row.p95_latency_ms, 4),
                              FormatDouble(row.median_ci_width, 6)});
      }
    }
  }
  std::printf("\nanytime budget sweep (budgeted AnswerMulti):\n");
  anytime_table.Print();

  // Progressive refine-vs-restart sweep: walking the {25, 50, 100}% budget
  // ladder by resuming ONE EstimationSession (each step scans only the
  // delta units) versus restarting a fresh budgeted AnswerMulti at every
  // level (each step re-scans its whole prefix). Resume spends exactly
  // plan units across the ladder; restart spends ~1.75x plan — CI asserts
  // both axes (wall-clock at K >= 2 and scan units everywhere) so the
  // resumable path keeps paying for itself across PRs.
  TablePrinter progressive_table({"shards", "mode", "p50_ms", "p95_ms",
                                  "units/query"});
  {
    constexpr size_t kRepeat = 4;
    const unsigned kLadder[] = {25u, 50u, 100u};
    for (const size_t k : {size_t{1}, size_t{2}, size_t{4}}) {
      EngineConfig shard_config = config;
      shard_config.num_shards = k;
      // Same rig as the anytime sweep above: a heavier scan keeps the
      // resume-vs-restart delta (a pure scan-work delta) above noise.
      shard_config.sample_rate = 4 * kSampleRate;
      const std::unique_ptr<AqpSystem> engine =
          MustMakeEngine("sharded_pass", data, shard_config);
      std::vector<uint64_t> plans;
      plans.reserve(queries.size());
      for (const Query& q : queries) {  // untimed warm-up + plan pricing
        plans.push_back(
            engine->AnswerMulti(q.predicate).sum.scan_units_planned);
      }

      std::vector<double> resume_ms;
      std::vector<double> restart_ms;
      resume_ms.reserve(queries.size());
      restart_ms.reserve(queries.size());
      uint64_t resume_units = 0;
      uint64_t restart_units = 0;
      for (size_t i = 0; i < queries.size(); ++i) {
        const Rect& predicate = queries[i].predicate;
        {
          Stopwatch timer;
          for (size_t r = 0; r < kRepeat; ++r) {
            const auto session = engine->StartSession(predicate, i);
            for (const unsigned pct : kLadder) {
              (void)session->AdvanceTo(plans[i] * pct / 100);
            }
            if (r == 0) resume_units += session->UnitsScanned();
          }
          resume_ms.push_back(timer.ElapsedMillis() /
                              static_cast<double>(kRepeat));
        }
        {
          Stopwatch timer;
          for (size_t r = 0; r < kRepeat; ++r) {
            for (const unsigned pct : kLadder) {
              AnswerOptions options;
              options.budget.max_scan_units = plans[i] * pct / 100;
              options.seed = i;
              const MultiAnswer answer =
                  engine->AnswerMulti(predicate, options);
              // sample_rows_scanned is the scan-unit spend of a budgeted
              // run (== scan_units_planned when untruncated).
              if (r == 0) restart_units += answer.sum.sample_rows_scanned;
            }
          }
          restart_ms.push_back(timer.ElapsedMillis() /
                               static_cast<double>(kRepeat));
        }
      }

      const size_t per_query = std::max<size_t>(queries.size(), 1);
      MethodRow resume_row;
      char method[40];
      std::snprintf(method, sizeof(method), "progressive_resume_k%zu", k);
      resume_row.method = method;
      resume_row.p50_latency_ms = Quantile(resume_ms, 0.5);
      resume_row.p95_latency_ms = Quantile(resume_ms, 0.95);
      resume_row.scan_units = resume_units;
      rows.push_back(resume_row);

      MethodRow restart_row;
      std::snprintf(method, sizeof(method), "progressive_restart_k%zu", k);
      restart_row.method = method;
      restart_row.p50_latency_ms = Quantile(restart_ms, 0.5);
      restart_row.p95_latency_ms = Quantile(restart_ms, 0.95);
      restart_row.scan_units = restart_units;
      rows.push_back(restart_row);

      progressive_table.AddRow(
          {std::to_string(k), "resume",
           FormatDouble(resume_row.p50_latency_ms, 4),
           FormatDouble(resume_row.p95_latency_ms, 4),
           FormatDouble(static_cast<double>(resume_units) /
                            static_cast<double>(per_query),
                        6)});
      progressive_table.AddRow(
          {std::to_string(k), "restart",
           FormatDouble(restart_row.p50_latency_ms, 4),
           FormatDouble(restart_row.p95_latency_ms, 4),
           FormatDouble(static_cast<double>(restart_units) /
                            static_cast<double>(per_query),
                        6)});
    }
  }
  std::printf("\nprogressive refine-vs-restart sweep (EstimationSession):\n");
  progressive_table.Print();

  const size_t num_engines = rows.size();

  // Kernel timings backing the paper's complexity claims: the MCF index
  // walk is O(gamma log B) (Section 3.2) — swept over leaf counts B so the
  // log-B scaling stays observable in the artifact — streaming inserts are
  // O(height) (Section 4.5), and synopsis construction is the build-cost
  // baseline.
  // The default (b=64) synopsis is reused read-only by the leaf-scan
  // kernel below, saving one full rebuild per run.
  const Synopsis default_synopsis = MustBuildSynopsis(data, PassDefaults());
  Rect mcf_query(1);
  mcf_query.dim(0) = {5.0 * 86400.0, 9.0 * 86400.0};
  for (const size_t leaves : {size_t{16}, size_t{64}, size_t{256}}) {
    std::optional<Synopsis> built;
    if (leaves != kPartitions) {
      built = MustBuildSynopsis(data, PassDefaults(leaves));
    }
    const Synopsis& synopsis = built ? *built : default_synopsis;
    char kernel_name[32];
    std::snprintf(kernel_name, sizeof(kernel_name), "mcf_walk_b%zu", leaves);
    rows.push_back(KernelRow(
        kernel_name, TimeKernel(50, 200, [&synopsis, &mcf_query] {
          (void)synopsis.tree().ComputeMcf(mcf_query);
        })));
  }

  Synopsis streaming = default_synopsis;  // mutable copy, no rebuild
  Rng insert_rng(79);
  rows.push_back(KernelRow(
      "streaming_insert", TimeKernel(50, 200, [&streaming, &insert_rng] {
        streaming.Insert({insert_rng.UniformDouble(0.0, 31.0 * 86400.0)},
                         insert_rng.LogNormal(1.0, 0.6));
      })));

  // Leaf-sample scan: the per-query hot loop, now routed through the
  // branchless scan kernel (kernel/scan_kernel.h); kept under its original
  // name so the perf trajectory across the vectorization PR stays one
  // series.
  const StratifiedSample& leaf = default_synopsis.leaf_sample(0);
  Rect scan_all(1);
  scan_all.dim(0) = {0.0, 1e9};
  rows.push_back(KernelRow("leaf_sample_scan",
                           TimeKernel(50, 200, [&leaf, &scan_all] {
                             (void)leaf.Scan(scan_all);
                           })));

  // SIMD kernel sweep: the branchy scalar reference vs the branchless
  // kernel vs the kernel with active-dim pruning (only the last dim
  // contested — the shape the estimator produces for a partial leaf whose
  // box the query covers on every other dimension; last rather than first
  // so the scalar loop's short-circuit order doesn't decide the race, and
  // the sweep measures full-width scan cost). The simd and pruned rows
  // time ScanColumns as dispatched, so d <= kMaxFixedDims runs the fixed
  // instantiations. All three compute the same mask, so their stats are
  // checked bit-identical before timing; CI asserts simd p50 <= scalar p50
  // and pruned rows/sec > scalar at d >= 2.
  {
    constexpr size_t kSweepRows = 8192;  // unscaled: in-run comparison only
    Rng sweep_rng(4242);
    TablePrinter simd_table({"sweep", "p50_ms/op", "Mrows/s"});
    for (const size_t d : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      std::vector<std::vector<double>> cols(d,
                                            std::vector<double>(kSweepRows));
      std::vector<double> agg(kSweepRows);
      for (auto& col : cols) {
        for (double& v : col) v = sweep_rng.UniformDouble();
      }
      for (double& a : agg) a = sweep_rng.LogNormal(1.0, 0.6);
      for (const int sel : {1, 10, 90}) {
        std::vector<ScanDim> all_dims(d);
        for (size_t k = 0; k + 1 < d; ++k) {
          // Provably true for values in [0, 1): what pruning removes.
          all_dims[k] = ScanDim{cols[k].data(), -1.0, 2.0};
        }
        all_dims[d - 1] =
            ScanDim{cols[d - 1].data(), 0.0, static_cast<double>(sel) / 100.0};
        const ScanDim contested = all_dims[d - 1];

        const ScanStats want = ScanColumnsScalarRef(agg.data(), kSweepRows,
                                                    all_dims.data(), d);
        for (const ScanStats got :
             {ScanColumns(agg.data(), kSweepRows, all_dims.data(), d),
              ScanColumns(agg.data(), kSweepRows, &contested, 1)}) {
          PASS_CHECK_MSG(SameScanBits(got, want),
                         "simd sweep kernels diverged");
        }

        struct Variant {
          const char* name;
          std::function<void()> op;
        };
        const Variant variants[] = {
            {"scalar",
             [&] {
               (void)ScanColumnsScalarRef(agg.data(), kSweepRows,
                                          all_dims.data(), d);
             }},
            {"simd",
             [&] {
               (void)ScanColumns(agg.data(), kSweepRows, all_dims.data(), d);
             }},
            {"pruned",
             [&] {
               (void)ScanColumns(agg.data(), kSweepRows, &contested, 1);
             }},
        };
        for (const Variant& v : variants) {
          char name[48];
          std::snprintf(name, sizeof(name), "simd_sweep_%s_d%zu_s%d", v.name,
                        d, sel);
          MethodRow row;
          row.method = name;
          const std::vector<double> per_op_ms = TimeKernel(30, 50, v.op);
          row.p50_latency_ms = Quantile(per_op_ms, 0.5);
          row.p95_latency_ms = Quantile(per_op_ms, 0.95);
          row.ops_per_sec =
              row.p50_latency_ms > 0.0 ? 1e3 / row.p50_latency_ms : 0.0;
          row.rows_per_sec =
              row.ops_per_sec * static_cast<double>(kSweepRows);
          simd_table.AddRow({row.method,
                             FormatDouble(row.p50_latency_ms, 4),
                             FormatDouble(row.rows_per_sec / 1e6, 1)});
          rows.push_back(row);
        }
      }
    }
    std::printf("\nsimd scan-kernel sweep (%s build):\n",
                ScanKernelVectorized() ? "vectorized" : "scalar");
    simd_table.Print();
  }

  // Specialization sweep: the runtime-dim instantiation
  // (ScanColumnsGeneric) vs ScanColumns, which dispatches these dim counts
  // to the compile-time-fixed instantiations. Only the last dim is
  // contested (same shape as the simd sweep) and both are checked
  // bit-identical before timing. CI asserts fixed rows/sec >= generic at
  // d >= 2, where the per-block descriptor loop the fixed kernels delete
  // is widest. The jit_sweep_ row names predate the fixed kernels' move
  // behind ScanColumns and are kept so the series stays comparable.
  {
    constexpr size_t kSweepRows = 8192;  // unscaled: in-run comparison only
    Rng jit_rng(4243);
    TablePrinter jit_table({"sweep", "p50_ms/op", "Mrows/s"});
    for (const size_t d : {size_t{1}, size_t{2}, size_t{4}}) {
      std::vector<std::vector<double>> cols(d,
                                            std::vector<double>(kSweepRows));
      std::vector<double> agg(kSweepRows);
      for (auto& col : cols) {
        for (double& v : col) v = jit_rng.UniformDouble();
      }
      for (double& a : agg) a = jit_rng.LogNormal(1.0, 0.6);
      for (const int sel : {1, 10, 90}) {
        std::vector<ScanDim> all_dims(d);
        for (size_t k = 0; k + 1 < d; ++k) {
          all_dims[k] = ScanDim{cols[k].data(), -1.0, 2.0};
        }
        all_dims[d - 1] =
            ScanDim{cols[d - 1].data(), 0.0, static_cast<double>(sel) / 100.0};
        const ScanStats fixed =
            ScanColumns(agg.data(), kSweepRows, all_dims.data(), d);
        const ScanStats generic =
            ScanColumnsGeneric(agg.data(), kSweepRows, all_dims.data(), d);
        PASS_CHECK_MSG(SameScanBits(fixed, generic),
                       "fixed sweep kernel diverged from the generic one");

        struct Variant {
          const char* name;
          std::function<void()> op;
        };
        const Variant variants[] = {
            {"generic",
             [&] {
               (void)ScanColumnsGeneric(agg.data(), kSweepRows,
                                        all_dims.data(), d);
             }},
            {"fixed",
             [&] {
               (void)ScanColumns(agg.data(), kSweepRows, all_dims.data(), d);
             }},
        };
        for (const Variant& v : variants) {
          char name[48];
          std::snprintf(name, sizeof(name), "jit_sweep_%s_d%zu_s%d", v.name,
                        d, sel);
          MethodRow row;
          row.method = name;
          const std::vector<double> per_op_ms = TimeKernel(30, 50, v.op);
          row.p50_latency_ms = Quantile(per_op_ms, 0.5);
          row.p95_latency_ms = Quantile(per_op_ms, 0.95);
          row.ops_per_sec =
              row.p50_latency_ms > 0.0 ? 1e3 / row.p50_latency_ms : 0.0;
          row.rows_per_sec =
              row.ops_per_sec * static_cast<double>(kSweepRows);
          jit_table.AddRow({row.method,
                            FormatDouble(row.p50_latency_ms, 4),
                            FormatDouble(row.rows_per_sec / 1e6, 1)});
          rows.push_back(row);
        }
      }
    }
    std::printf("\nspecialization sweep (fixed vs runtime-dim kernel):\n");
    jit_table.Print();
  }

  const Dataset build_data = MakeTaxiDatetime(Scaled(50'000), 78);
  rows.push_back(KernelRow("build_synopsis", TimeKernel(3, 1, [&build_data] {
    (void)MustBuildSynopsis(build_data, PassDefaults());
  })));

  TablePrinter kernels({"kernel", "p50_ms/op", "p95_ms/op", "ops/s"});
  for (size_t i = num_engines; i < rows.size(); ++i) {
    kernels.AddRow({rows[i].method, FormatDouble(rows[i].p50_latency_ms, 4),
                    FormatDouble(rows[i].p95_latency_ms, 4),
                    FormatDouble(rows[i].ops_per_sec, 6)});
  }
  std::printf("\n");
  kernels.Print();

  const std::string path = JsonPath();
  WriteJson(path, rows);
  std::printf(
      "\nwrote %s (%zu serving rows + %zu kernels, %zu queries, %zu threads "
      "in pool)\n",
      path.c_str(), num_engines, rows.size() - num_engines, queries.size(),
      parallel.num_threads());
  return 0;
}
