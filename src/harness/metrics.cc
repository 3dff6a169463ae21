#include "harness/metrics.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/exact_system.h"
#include "engine/query_scheduler.h"
#include "stats/quantile.h"

namespace pass {
namespace {

/// Every query's answer and run time, index-aligned with the workload,
/// plus the whole-batch wall time.
struct ServedBatch {
  std::vector<QueryAnswer> answers;
  std::vector<double> run_ms;
  double wall_ms = 0.0;
};

/// Submits every query to a scheduler with `num_threads` workers (0 =
/// hardware concurrency) and waits for every future. The scheduler is the
/// serving path a front-end uses, so harness answers are the same bits as
/// served ones.
ServedBatch ServeBatch(const AqpSystem& system,
                       const std::vector<Query>& queries, size_t num_threads) {
  QueryScheduler scheduler(num_threads);
  ServedBatch batch;
  batch.answers.reserve(queries.size());
  batch.run_ms.reserve(queries.size());
  std::vector<std::future<ScheduledAnswer>> futures;
  futures.reserve(queries.size());
  Stopwatch wall;
  for (const Query& query : queries) {
    futures.push_back(scheduler.Submit(system, query));
  }
  for (std::future<ScheduledAnswer>& future : futures) {
    ScheduledAnswer scheduled = future.get();
    // No deadline was set and the scheduler outlives the batch, so it can
    // only have resolved with an answer.
    PASS_CHECK_MSG(scheduled.status.ok(),
                   scheduled.status.ToString().c_str());
    batch.answers.push_back(std::move(scheduled.answer));
    batch.run_ms.push_back(scheduled.run_ms);
  }
  batch.wall_ms = wall.ElapsedMillis();
  return batch;
}

}  // namespace

std::vector<ExactResult> ComputeGroundTruth(
    const Dataset& data, const std::vector<Query>& queries) {
  const ExactSystem exact(data);
  const ServedBatch batch = ServeBatch(exact, queries, /*num_threads=*/0);
  std::vector<ExactResult> out;
  out.reserve(queries.size());
  for (const QueryAnswer& answer : batch.answers) {
    ExactResult truth;
    truth.value = answer.estimate.value;
    truth.matched = answer.matched_sample_rows;
    out.push_back(truth);
  }
  return out;
}

RunSummary EvaluateSystem(const AqpSystem& system,
                          const std::vector<Query>& queries,
                          const std::vector<ExactResult>& truths,
                          const EvalOptions& options) {
  PASS_CHECK(queries.size() == truths.size());
  RunSummary summary;
  summary.system = system.Name();
  summary.num_queries = queries.size();
  summary.costs = system.Costs();

  const ServedBatch batch = ServeBatch(system, queries, options.num_threads);

  std::vector<double> rel_errors;
  std::vector<double> ci_ratios;
  double skip_acc = 0.0;
  double ess_acc = 0.0;
  double latency_acc = 0.0;
  size_t ci_covered = 0;
  size_t hard_covered = 0;

  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryAnswer& answer = batch.answers[i];
    const double latency_ms = batch.run_ms[i];
    latency_acc += latency_ms;
    summary.max_latency_ms = std::max(summary.max_latency_ms, latency_ms);
    skip_acc += answer.SkipRate();
    ess_acc += static_cast<double>(answer.sample_rows_scanned);

    const ExactResult& truth = truths[i];
    if (!UsableGroundTruth(truth)) continue;
    ++summary.num_scored;

    rel_errors.push_back(RelativeError(answer.estimate.value, truth));
    ci_ratios.push_back(answer.estimate.HalfWidth(options.lambda) /
                        std::abs(truth.value));
    if (answer.estimate.Contains(truth.value, options.lambda)) ++ci_covered;
    if (answer.hard_lb && answer.hard_ub) {
      ++summary.hard_given;
      const double slack =
          1e-9 * (1.0 + std::abs(truth.value));  // float round-off
      if (truth.value >= *answer.hard_lb - slack &&
          truth.value <= *answer.hard_ub + slack) {
        ++hard_covered;
      }
    }
  }

  const double nq = static_cast<double>(queries.size());
  summary.mean_skip_rate = skip_acc / std::max(nq, 1.0);
  summary.mean_ess = ess_acc / std::max(nq, 1.0);
  summary.mean_latency_ms = latency_acc / std::max(nq, 1.0);
  if (!batch.run_ms.empty()) {
    summary.p50_latency_ms = Quantile(batch.run_ms, 0.5);
    summary.p95_latency_ms = Quantile(batch.run_ms, 0.95);
  }
  if (batch.wall_ms > 0.0) summary.batch_qps = nq / (batch.wall_ms / 1e3);
  if (!rel_errors.empty()) {
    summary.median_rel_error = Median(rel_errors);
    summary.p95_rel_error = Quantile(rel_errors, 0.95);
    double acc = 0.0;
    for (const double e : rel_errors) acc += e;
    summary.mean_rel_error = acc / static_cast<double>(rel_errors.size());
    summary.ci_coverage = static_cast<double>(ci_covered) /
                          static_cast<double>(rel_errors.size());
  }
  if (!ci_ratios.empty()) summary.median_ci_ratio = Median(ci_ratios);
  summary.hard_coverage =
      summary.hard_given == 0
          ? 1.0
          : static_cast<double>(hard_covered) /
                static_cast<double>(summary.hard_given);
  return summary;
}

}  // namespace pass
