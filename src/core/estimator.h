#ifndef PASS_CORE_ESTIMATOR_H_
#define PASS_CORE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/partition_tree.h"
#include "core/stratified_sample.h"
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
  /// `units`. Empty (the default, what Synopsis::PlanFor emits) means the
  /// budget walk derives the order from AnswerOptions::seed. A sharded
  /// fan-out fills it with the restriction of its global interleaved
  /// order, so each shard admits exactly the units the global budget walk
  /// chose.
  std::vector<uint32_t> priority;
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
