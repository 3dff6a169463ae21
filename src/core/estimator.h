#ifndef PASS_CORE_ESTIMATOR_H_
#define PASS_CORE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/answer.h"
#include "core/estimation_session.h"
#include "core/partition_tree.h"
#include "core/query.h"
#include "core/stratified_sample.h"
#include "core/work_budget.h"
#include "stats/confidence.h"

namespace pass {

/// How AVG queries are estimated.
enum class AvgMode {
  /// AVG = (PASS estimate of SUM) / (PASS estimate of COUNT), combining
  /// exact covered contributions with sampled partial ones; CI via the
  /// delta method with within-stratum covariance. Statistically the ratio
  /// estimator; the library default.
  kRatio,
  /// The paper's Section 2.2 / 3.3 scheme: per-stratum means combined with
  /// weights w_i = N_i / N_q, variance sum of w_i^2 * V_i(q).
  kPaperWeights,
};

class KernelCache;

/// Estimator configuration shared by the Synopsis and the baselines that
/// reuse stratified estimation.
struct EstimatorOptions {
  double lambda = kLambda99;  // CI multiplier; paper uses 2.576 (99%)
  AvgMode avg_mode = AvgMode::kRatio;
  bool zero_variance_rule = true;  // Section 3.4, AVG only
  bool use_fpc = true;             // finite population correction
  bool compute_hard_bounds = true;

  /// Kernel tier counters every leaf scan records into
  /// (jit/kernel_cache.h); nullptr scans uncounted. Counting never changes
  /// an answer. The registry installs one per engine, shared across
  /// shards and ensemble members.
  std::shared_ptr<KernelCache> kernel_cache;
};

/// One schedulable piece of a query's sampled work: the stratified sample
/// of one partially-overlapped leaf, costed in scan units (= sample rows).
/// Zero-cost units (empty samples) always "execute" — their estimate is the
/// bounds-midpoint fallback either way.
struct WorkUnit {
  int32_t node = -1;  // partition-tree node id of the partial leaf
  uint64_t cost = 0;  // scan units = rows in the leaf's sample
};

/// The plan half of the estimation pipeline: everything the MCF walk
/// determines *before* any sample row is touched. Enumerates the partial
/// leaves as costed scan units so a serving layer can price a query
/// (total_cost), split a budget across shards proportionally, or decide to
/// answer from bounds alone — all without paying for a scan.
struct WorkPlan {
  PartitionTree::Frontier frontier;
  std::vector<WorkUnit> units;  // one per frontier.partial, same order
  uint64_t total_cost = 0;      // sum of unit costs

  /// Optional explicit spend-priority order: a permutation of indices into
  /// `units`. Empty (the default, what PlanScan emits) means the executor
  /// derives the order from AnswerOptions::seed. A sharded fan-out fills
  /// it with the restriction of its global interleaved order, so each
  /// shard admits exactly the units the global budget walk chose.
  std::vector<uint32_t> priority;
};

/// Runs the MCF walk and enumerates the partial-leaf scan units. This is
/// the cheap half of what used to be one fused scan-everything routine; an
/// executor (inside the budgeted entry points below) consumes the plan's
/// units up to a WorkBudget.
WorkPlan PlanScan(const PartitionTree& tree,
                  const std::vector<StratifiedSample>& samples,
                  const Rect& predicate, bool zero_variance_as_covered);

/// Full PASS query processing (Section 3.3): MCF index lookup, exact
/// partial aggregation over covered nodes, stratified sample estimation
/// over partially-overlapped leaves, CLT confidence interval, and
/// deterministic hard bounds.
///
/// `samples[leaf_id]` is the stratified sample of the leaf with that id.
QueryAnswer AnswerWithTree(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           const Query& query, const EstimatorOptions& opts);

/// Anytime variant: executes the query's WorkPlan only up to
/// `answer_options.budget`, spending units in the deterministic priority
/// order derived from `answer_options.seed`. Unscanned leaves contribute
/// the bounds-midpoint fallback (the one sample-less leaves always used),
/// so every budget level yields a valid answer whose interval tightens as
/// the budget grows; `truncated` reports whether anything was left
/// unscanned. With an unlimited budget this is bit-identical to the
/// overload above. Under AvgMode::kPaperWeights an unscanned leaf drops
/// out of the AVG weights exactly like a no-match leaf always has; the
/// ratio mode (the default) keeps full population mass at every budget.
QueryAnswer AnswerWithTree(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           const Query& query, const EstimatorOptions& opts,
                           const AnswerOptions& answer_options);

/// Same, but executes a plan the caller already computed (e.g. while
/// pricing a budget split) instead of walking the index again. The plan
/// must be PlanScan's result for this predicate with the rule flag this
/// query would use — rule-OFF for everything except AVG under the
/// zero-variance rule.
QueryAnswer AnswerOverPlan(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           WorkPlan plan, const Query& query,
                           const EstimatorOptions& opts,
                           const AnswerOptions& answer_options);

/// Fused multi-aggregate query processing: ONE MCF walk and ONE scan of
/// each partial leaf's sample produce SUM, COUNT and AVG together, with
/// the exactly computed Cov(SUM, COUNT). The walk skips the AVG-only
/// zero-variance rule so all three aggregates share a frontier — which is
/// what makes the SUM and COUNT answers bit-identical to per-aggregate
/// AnswerWithTree calls and the covariance exact. AVG is the ratio of the
/// fused SUM/COUNT with the delta-method variance over that covariance.
///
/// The fused AVG is *always* this ratio estimator — the mergeable
/// sampling-algebra form, and the only one a covariance is meaningful
/// for. EstimatorOptions::avg_mode applies to the per-aggregate
/// AnswerWithTree path only: under AvgMode::kPaperWeights, Answer(kAvg)
/// and the fused avg are different estimators by design (exactly as the
/// sharded AVG merge has always been ratio-combined regardless of the
/// per-shard mode).
MultiAnswer MultiAnswerWithTree(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                const Rect& predicate,
                                const EstimatorOptions& opts);

/// Anytime variant of the fused path; same budget/seed semantics as the
/// budgeted AnswerWithTree. SUM, COUNT and AVG truncate together (they
/// share the one frontier and the one execution set), so the fused
/// covariance stays exact over whatever was actually scanned.
MultiAnswer MultiAnswerWithTree(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                const Rect& predicate,
                                const EstimatorOptions& opts,
                                const AnswerOptions& answer_options);

/// Fused path over a caller-provided plan (must be the rule-OFF PlanScan
/// of this predicate — the frontier every fused answer uses).
MultiAnswer MultiAnswerOverPlan(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                WorkPlan plan, const Rect& predicate,
                                const EstimatorOptions& opts,
                                const AnswerOptions& answer_options);

/// Opens a resumable fused estimation over a plan the caller already
/// computed (PlanScan with the rule OFF — the fused frontier). AdvanceTo
/// answers are bit-identical to MultiAnswerOverPlan on the same plan with
/// the same seed and `budget.max_scan_units` equal to the cumulative cap:
/// both spend units in the same priority order (the plan's explicit one,
/// or the seed-shuffled order) under the same prefix-stop admission, and
/// both assemble estimates from the partial scans in frontier order. The
/// tree and samples must outlive the session.
std::unique_ptr<EstimationSession> StartTreeSession(
    const PartitionTree& tree, const std::vector<StratifiedSample>& samples,
    WorkPlan plan, Rect predicate, const EstimatorOptions& opts,
    uint64_t seed);

/// Per-stratum moments used by SUM/COUNT estimation; exposed for reuse by
/// baselines (stratified sampling shares the math).
struct StratumEstimate {
  double value = 0.0;
  double variance = 0.0;
};

/// SUM estimator for one stratum of population size `n_pop` from a uniform
/// sample of size `k_samp` in which the matched tuples have sum `s` and
/// sum of squares `ss`. COUNT is the special case s = ss = matched.
StratumEstimate EstimateStratumSum(double n_pop, double k_samp, double s,
                                   double ss, bool use_fpc);

}  // namespace pass

#endif  // PASS_CORE_ESTIMATOR_H_
