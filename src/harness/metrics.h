#ifndef PASS_HARNESS_METRICS_H_
#define PASS_HARNESS_METRICS_H_

#include <string>
#include <vector>

#include "core/aqp_system.h"
#include "core/exact.h"
#include "core/query.h"
#include "storage/dataset.h"

namespace pass {

/// Accuracy/latency metrics matching Section 5.1.2: relative error, CI
/// ratio (half CI width over ground truth), skip rate, plus coverage
/// diagnostics the paper implies (truth within CI / hard bounds).
struct RunSummary {
  std::string system;
  size_t num_queries = 0;
  size_t num_scored = 0;  // queries with usable (non-zero) ground truth

  double median_rel_error = 0.0;
  double mean_rel_error = 0.0;
  double p95_rel_error = 0.0;
  double median_ci_ratio = 0.0;
  double mean_skip_rate = 0.0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double batch_qps = 0.0;  // whole-batch throughput (queries/second)
  double mean_ess = 0.0;       // mean sample rows scanned per query
  double ci_coverage = 0.0;    // P(truth within the lambda CI)
  double hard_coverage = 1.0;  // P(truth within hard bounds | bounds given)
  size_t hard_given = 0;

  SystemCosts costs;
};

struct EvalOptions {
  double lambda = 2.576;  // 99%, the paper's default
  /// Worker count for answering the workload. Evaluation runs through a
  /// QueryScheduler built for the call, so these numbers measure the same
  /// execution path a server front-end uses.
  /// Defaults to 1 so per-query latencies stay comparable to the paper's
  /// sequential measurements; 0 = hardware concurrency.
  size_t num_threads = 1;
};

/// Ground truth via full scans — compute once per (dataset, workload) and
/// share across all evaluated systems. Scans run across the hardware's
/// threads (results are index-aligned and deterministic).
std::vector<ExactResult> ComputeGroundTruth(const Dataset& data,
                                            const std::vector<Query>& queries);

/// Runs every query through the system and aggregates the metrics.
RunSummary EvaluateSystem(const AqpSystem& system,
                          const std::vector<Query>& queries,
                          const std::vector<ExactResult>& truths,
                          const EvalOptions& options = {});

}  // namespace pass

#endif  // PASS_HARNESS_METRICS_H_
