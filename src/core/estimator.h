#ifndef PASS_CORE_ESTIMATOR_H_
#define PASS_CORE_ESTIMATOR_H_

#include <cstddef>
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
  AvgMode avg_mode = AvgMode::kRatio;
  bool zero_variance_rule = true;  // Section 3.4, AVG only
  bool use_fpc = true;             // finite population correction

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
/// (total_cost) or decide to answer from bounds alone, all without paying
/// for a scan.
struct WorkPlan {
  PartitionTree::Frontier frontier;
  std::vector<WorkUnit> units;  // one per frontier.partial, same order
  uint64_t total_cost = 0;      // sum of unit costs
};

class Synopsis;
struct FrontierScan;

/// The budget walk over one query's scan units: the stratified samples of
/// its partially covered leaves (Section 3.3), on one synopsis or on every
/// shard of a sharded one. Each synopsis executes its own plan; the walk
/// puts the nonzero-cost units of all of them in one spend order (shard-
/// major, then one seed-deterministic shuffle) and admits whole units
/// while each fits the cumulative cap and the soft deadline has not
/// passed, stopping at the first that does not. A unit is all-or-nothing
/// (a partial scan of one leaf's sample would bias its stratum
/// estimator), and stopping rather than skipping makes the admitted set
/// at any cap a prefix of the admitted set at every larger one: a session
/// is a checkpoint in that order, so resuming it matches a fresh walk bit
/// for bit. Each synopsis's answer is assembled in its frontier order, so
/// the budget decides which leaves are scanned, never the accumulation
/// order; several synopses' answers merge with MergeShardAnswers and
/// MergeShardMulti (core/answer_merge.h).
class BudgetWalk {
 public:
  /// Starts a walk over `n` synopses, `synopses[i]` executing `plans[i]`,
  /// its plan of `predicate` (moved from). Zero-cost units (empty samples)
  /// are scanned here: they do no work, so every budget admits them.
  /// Without `in_spend_order` the units stay in frontier order, for a walk
  /// an unlimited budget advances: it admits them all, so their order
  /// cannot matter. `predicate` must outlive the walk.
  BudgetWalk(const Rect& predicate, const Synopsis* synopses, WorkPlan* plans,
             size_t n, bool in_spend_order, uint64_t seed);
  BudgetWalk(BudgetWalk&& other) noexcept;
  ~BudgetWalk();

  /// A one-shot answer's walk: in spend order unless `options.budget` is
  /// unlimited, advanced once under it.
  static BudgetWalk Once(const Rect& predicate, const Synopsis* synopses,
                         WorkPlan* plans, size_t n,
                         const AnswerOptions& options);

  /// A resumable fused estimation over a walk in spend order: each
  /// AdvanceTo is one Advance plus AnswerMulti. The synopses must outlive
  /// the session.
  static std::unique_ptr<EstimationSession> Resumable(
      const Rect& predicate, const Synopsis* synopses, WorkPlan* plans,
      size_t n, uint64_t seed);

  /// Admits units in spend order from the checkpoint, up to a cumulative
  /// `budget.max_scan_units`, and stops at the first unit reached after
  /// `budget.soft_deadline`.
  void Advance(const WorkBudget& budget);

  /// The answer over the units admitted so far. One synopsis answers AVG
  /// through its EstimatorOptions::avg_mode; several answer it as the
  /// fused ratio of their merged SUM and COUNT.
  QueryAnswer Answer(AggregateType agg) const;
  /// The fused SUM/COUNT/AVG answer over the units admitted so far.
  MultiAnswer AnswerMulti() const;

  uint64_t PlanCost() const { return planned_; }
  uint64_t UnitsScanned() const { return used_; }

 private:
  /// A unit's place in the spend order: its synopsis, then its index in
  /// that synopsis's plan.
  struct SpendUnit {
    uint32_t scan;
    uint32_t unit;
  };

  const Rect* predicate_;
  std::vector<FrontierScan> scans_;  // one per synopsis
  std::vector<SpendUnit> order_;     // nonzero-cost units, in spend order
  size_t cursor_ = 0;                // next candidate in `order_`
  uint64_t used_ = 0;                // scan units admitted so far
  uint64_t planned_ = 0;             // total cost of every plan
};

/// One stratum's sampled evidence: its population `n_pop`, the size
/// `k_samp` of its uniform sample, and the matched-row moments of one scan
/// over that sample.
struct SampledStratum {
  double n_pop = 0.0;
  double k_samp = 0.0;
  StratifiedSample::ScanResult scan;
};

/// SUM estimator for one stratum of population size `n_pop` from a uniform
/// sample of size `k_samp` in which the matched tuples have sum `s` and
/// sum of squares `ss`. COUNT is the special case s = ss = matched.
Estimate EstimateStratumSum(double n_pop, double k_samp, double s, double ss,
                            bool use_fpc);

/// The stratified estimator of SUM and COUNT (Sections 2.1-2.2 and 3.3):
/// an exact part plus independent strata, folded in one at a time, with
/// the Cov(SUM, COUNT) the AVG ratio needs. PASS's exact part is its
/// covered partitions, AQP++'s its covered aggregates; US and ST have none.
/// Every caller folds through here, so their answers share one arithmetic.
class SumCountAccumulator {
 public:
  SumCountAccumulator(const AggregateStats& exact, bool use_fpc);

  /// A stratum with a sample scan. An empty sample adds nothing.
  void AddSampled(const SampledStratum& stratum);

  /// A stratum without a sample, or whose scan a work budget skipped: the
  /// midpoint of its contribution bounds, with the variance of a uniform
  /// distribution over them. It adds no covariance: its SUM and COUNT
  /// fallbacks are independent.
  void AddUnsampled(const AggregateStats& stratum);

  const Estimate& sum() const { return sum_; }
  const Estimate& count() const { return count_; }
  double sum_count_cov() const { return cov_; }

 private:
  bool use_fpc_;
  Estimate sum_;
  Estimate count_;
  double cov_ = 0.0;
};

/// Delta-method AVG = SUM / COUNT with the given Cov(SUM, COUNT). With no
/// evidence of a matching row (COUNT <= 0) it returns `no_evidence`.
Estimate RatioEstimate(const Estimate& sum, const Estimate& count, double cov,
                       const Estimate& no_evidence);

/// The paper's AVG (Sections 2.2 and 3.3): the exact part's mean and each
/// stratum's matched-sample mean, weighted by population share w_i =
/// N_i / N_q over the exact part and the strata with a matched row, with
/// variance sum of w_i^2 * V_i(q). With no such part it returns
/// `no_evidence`.
Estimate PaperWeightsAvg(const AggregateStats& exact,
                         const std::vector<SampledStratum>& strata,
                         bool use_fpc, const Estimate& no_evidence);

}  // namespace pass

#endif  // PASS_CORE_ESTIMATOR_H_
