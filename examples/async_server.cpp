/// Async serving tour: one QueryScheduler multiplexing N concurrent
/// clients onto a single worker pool, over a sharded PASS engine.
///
/// Each client submits its own query stream with a mixed deadline policy —
/// some requests are latency-critical (tight deadline: the scheduler
/// converts the remaining time into an anytime work budget, so they come
/// back truncated-but-valid instead of shed), some are best-effort (no
/// deadline) — and the server drains gracefully at the end. Deadline-free
/// answers are bit-identical to the synchronous path; the tour verifies
/// that live against a sequential replay, then closes with a progressive
/// AnswerUntil demo that streams interim answers while one resumable
/// session refines to a target CI width.
///
/// Usage: async_server [rows] [clients] [queries_per_client] [shards]

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "common/stopwatch.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "engine/query_scheduler.h"
#include "harness/table_printer.h"
#include "stats/quantile.h"

namespace {

size_t ParseArg(const char* arg, const char* name, size_t min, size_t max) {
  const std::optional<size_t> value = pass::ParseNonNegative(arg, max);
  if (!value || *value < min) {
    std::fprintf(
        stderr,
        "invalid %s \"%s\" (expected an integer in [%zu, %zu])\n"
        "usage: async_server [rows] [clients] [queries_per_client] [shards]\n",
        name, arg, min, max);
    std::exit(2);
  }
  return *value;
}

struct ClientStats {
  size_t answered = 0;
  size_t truncated = 0;  // anytime answers a deadline budget narrowed
  size_t shed = 0;       // deadline expired on a non-anytime engine only
  size_t mismatched = 0;
  std::vector<double> total_ms;  // admission -> resolution, answered only
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pass;

  const size_t rows =
      argc > 1 ? ParseArg(argv[1], "rows", 1000, 100'000'000) : 200'000;
  const size_t num_clients =
      argc > 2 ? ParseArg(argv[2], "clients", 1, 4096) : 16;
  const size_t per_client =
      argc > 3 ? ParseArg(argv[3], "queries_per_client", 1, 100'000) : 50;
  const size_t shards = argc > 4 ? ParseArg(argv[4], "shards", 1, 1024) : 4;

  const Dataset data = MakeTaxiDatetime(rows, /*seed=*/77);
  EngineConfig config;
  config.sample_rate = 0.005;
  config.partitions = 64;
  config.num_shards = shards;
  auto engine = EngineRegistry::Global().Create("sharded_pass", data, config);
  if (!engine.ok()) {
    std::fprintf(stderr, "sharded_pass: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // A bounded scheduler: at most 4 submissions in flight per worker, so a
  // flood of clients backpressures at admission instead of growing an
  // unbounded queue.
  SchedulerOptions scheduler_options;
  scheduler_options.num_threads = 0;  // hardware
  scheduler_options.max_in_flight =
      4 * ThreadPool::ResolveNumThreads(0);
  QueryScheduler scheduler(scheduler_options);

  std::printf(
      "%zu clients x %zu queries over %zu rows in %zu shards "
      "(%zu scheduler threads, max %zu in flight)\n\n",
      num_clients, per_client, data.NumRows(), shards,
      scheduler.num_threads(), scheduler.max_in_flight());

  // Per-client workloads, plus a sequential replay for the bit-identity
  // check at the end (computed up front; answers are deterministic).
  std::vector<std::vector<Query>> workloads(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    WorkloadOptions wl;
    wl.agg = c % 2 == 0 ? AggregateType::kSum : AggregateType::kAvg;
    wl.count = per_client;
    wl.seed = 1000 + c;
    workloads[c] = RandomRangeQueries(data, wl);
  }

  Stopwatch wall;
  std::vector<ClientStats> stats(num_clients);
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      ClientStats& mine = stats[c];
      std::vector<std::future<ScheduledAnswer>> futures;
      futures.reserve(workloads[c].size());
      std::vector<bool> has_deadline(workloads[c].size(), false);
      for (size_t i = 0; i < workloads[c].size(); ++i) {
        SubmitOptions options;
        // Mixed deadline policy: every third request is latency-critical
        // — on this anytime engine it takes whatever answer its deadline
        // budget buys (down to pure bounds) rather than being served
        // stale or shed; the rest wait as long as it takes.
        if (i % 3 == 0) {
          options.deadline = std::chrono::milliseconds(c % 5 == 0 ? 0 : 250);
          has_deadline[i] = true;
        }
        futures.push_back(
            scheduler.Submit(**engine, workloads[c][i], options));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        ScheduledAnswer answer = futures[i].get();
        if (answer.status.ok()) {
          ++mine.answered;
          mine.total_ms.push_back(answer.total_ms);
          if (answer.truncated) ++mine.truncated;
          if (!has_deadline[i]) {
            // Bit-identity spot check against the synchronous path —
            // deadline-free submissions only: a deadline answer is
            // legitimately budget-dependent.
            const QueryAnswer sync = (*engine)->Answer(workloads[c][i]);
            if (answer.answer.estimate.value != sync.estimate.value ||
                answer.answer.estimate.variance != sync.estimate.variance) {
              ++mine.mismatched;
            }
          }
        } else if (answer.status.code() == StatusCode::kDeadlineExceeded) {
          ++mine.shed;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  scheduler.Drain();  // quiesce before reporting (all futures resolved)
  const double wall_ms = wall.ElapsedMillis();

  size_t answered = 0;
  size_t truncated = 0;
  size_t shed = 0;
  size_t mismatched = 0;
  std::vector<double> all_ms;
  for (const ClientStats& s : stats) {
    answered += s.answered;
    truncated += s.truncated;
    shed += s.shed;
    mismatched += s.mismatched;
    all_ms.insert(all_ms.end(), s.total_ms.begin(), s.total_ms.end());
  }

  TablePrinter table(
      {"client", "agg", "answered", "truncated", "shed", "p95_total_ms"});
  for (size_t c = 0; c < std::min<size_t>(num_clients, 8); ++c) {
    table.AddRow({std::to_string(c), c % 2 == 0 ? "SUM" : "AVG",
                  std::to_string(stats[c].answered),
                  std::to_string(stats[c].truncated),
                  std::to_string(stats[c].shed),
                  stats[c].total_ms.empty()
                      ? "-"
                      : FormatDouble(Quantile(stats[c].total_ms, 0.95), 3)});
  }
  table.Print();
  if (num_clients > 8) {
    std::printf("... (%zu more clients)\n", num_clients - 8);
  }

  const double qps = wall_ms > 0.0
                         ? static_cast<double>(answered) / (wall_ms / 1e3)
                         : 0.0;
  std::printf(
      "\nanswered %zu (%zu anytime-truncated by their deadline budget), "
      "shed %zu\n",
      answered, truncated, shed);
  if (!all_ms.empty()) {
    std::printf("end-to-end latency p50 %.3f ms, p95 %.3f ms\n",
                Quantile(all_ms, 0.5), Quantile(all_ms, 0.95));
  }
  std::printf("throughput %.0f answers/s over %.1f ms wall\n", qps, wall_ms);
  std::printf("async == sync bit-identity: %s\n",
              mismatched == 0 ? "yes (every deadline-free answer)"
                              : "NO — report a bug");

  // Progressive answering tour: AnswerUntil opens one resumable
  // estimation session and refines it through a doubling budget ladder,
  // streaming every intermediate answer (is_final = false) through the
  // callback until the 99% CI is tight enough. Each step scans only the
  // delta units, so reaching the target costs no more scan work than a
  // single run at the final budget would.
  {
    Query q = workloads[0][0];
    q.agg = AggregateType::kSum;
    // Target: a quarter looser than the full-budget interval, so the
    // refinement usually stops a step or two before exhausting the plan.
    const double full_width =
        (*engine)->Answer(q).estimate.HalfWidth(kLambda99);
    StoppingCondition until;
    until.target_ci_width = full_width * 1.25;
    until.min_step_units = 256;

    std::printf("\nprogressive SUM (target 99%% CI half-width <= %.4g):\n",
                until.target_ci_width);
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    scheduler.AnswerUntil(
        **engine, q, until, SubmitOptions{},
        [&](ScheduledAnswer step) {
          std::printf(
              "  step %u: %s budget %llu/%llu units, estimate %.6g "
              "(half-width %.4g)\n",
              step.refinements, step.is_final ? "final " : "interim",
              static_cast<unsigned long long>(step.budget_used),
              static_cast<unsigned long long>(step.budget_total),
              step.answer.estimate.value,
              step.answer.estimate.HalfWidth(kLambda99));
          if (step.is_final) {
            std::lock_guard<std::mutex> lock(mu);
            finished = true;
            cv.notify_one();
          }
        });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return finished; });
  }

  // Graceful shutdown: stop admission, run everything admitted, reject
  // stragglers with a defined status.
  scheduler.Shutdown();
  ScheduledAnswer late =
      scheduler.Submit(**engine, workloads[0][0]).get();
  std::printf("post-shutdown submit resolves: %s\n",
              late.status.ToString().c_str());
  return mismatched == 0 ? 0 : 1;
}
