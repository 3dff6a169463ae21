// The estimation half of Synopsis: the budget walk over a query's scan
// units and the estimate assembly over its result. Synopsis's query
// methods are defined here, next to the walk they run.
#include "core/estimator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "core/hard_bounds.h"
#include "core/synopsis.h"

namespace pass {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Fpc(double n_pop, double k_samp, bool enabled) {
  if (!enabled) return 1.0;
  return FinitePopulationCorrection(n_pop, k_samp);
}

/// Adds an independent stratum's estimate to a running total.
void AddTo(const Estimate& stratum, Estimate* total) {
  total->value += stratum.value;
  total->variance += stratum.variance;
}

/// One partially-overlapped leaf: its population, its sample size, and the
/// matched-tuple moments of the single scan over its stratified sample.
/// `scanned` is false when the work budget excluded this leaf — the
/// estimators then use the same bounds-midpoint fallback a sample-less
/// leaf always gets.
struct PartialScan {
  int32_t node = -1;
  bool scanned = false;
  SampledStratum stratum;
};

/// Everything one MCF walk plus one (possibly budget-limited) pass over
/// the partial-leaf samples yields, and the budget walk's checkpoint.
/// Every aggregate estimate below is a pure function of this, so a fused
/// SUM/COUNT/AVG answer costs exactly one of these, and a resumable
/// session is one of these advanced in place.
struct FrontierScan {
  PartitionTree::Frontier frontier;
  AggregateStats covered_stats;  // covered + 0-variance nodes merged
  std::vector<PartialScan> partials;
  std::optional<double> observed_min;
  std::optional<double> observed_max;
  QueryAnswer base;  // shared diagnostics; estimate and bounds left empty

  std::vector<WorkUnit> units;  // the plan's costed units, one per partial
  std::vector<uint32_t> order;  // nonzero-cost units, in spend order
  size_t cursor = 0;            // next candidate in `order`
  uint64_t used = 0;            // scan units admitted so far
};

/// Whether a partial leaf's sampled moments may enter an estimate. A leaf
/// the budget skipped is treated exactly like a leaf that never had a
/// sample: deterministic fallback instead of sampled estimation.
bool HasScan(const PartialScan& p) {
  return p.scanned && p.stratum.k_samp > 0.0;
}

/// The MCF walk with the partial leaves enumerated as costed scan units.
WorkPlan PlanUnits(const PartitionTree& tree,
                   const std::vector<StratifiedSample>& samples,
                   const Rect& predicate, bool zero_variance_as_covered) {
  WorkPlan plan;
  plan.frontier = tree.ComputeMcf(predicate, zero_variance_as_covered);
  plan.units.reserve(plan.frontier.partial.size());
  for (const int32_t id : plan.frontier.partial) {
    const PartitionTree::Node& n = tree.node(id);
    PASS_CHECK_MSG(n.leaf_id >= 0, "partial node is not a finalized leaf");
    WorkUnit unit;
    unit.node = id;
    unit.cost = samples[static_cast<size_t>(n.leaf_id)].size();
    plan.total_cost += unit.cost;
    plan.units.push_back(unit);
  }
  return plan;
}

/// Scans one partial leaf's whole stratified sample. Active-dim pruning:
/// the leaf's tight bounding box proves dims the query fully covers, so
/// the kernel tests contested dims only. Bit-identical to the unpruned
/// scan (see StratifiedSample::Scan).
void ScanUnit(const PartitionTree& tree,
              const std::vector<StratifiedSample>& samples,
              const Rect& predicate, const EstimatorOptions& opts,
              PartialScan* p) {
  const PartitionTree::Node& n = tree.node(p->node);
  p->stratum.scan = samples[static_cast<size_t>(n.leaf_id)].Scan(
      predicate, n.data_bounds, opts.kernel_cache.get());
  p->scanned = true;
}

/// The budget walk, step one: frontier bookkeeping, covered aggregate
/// merging, one not-yet-scanned PartialScan per partial leaf, the
/// nonzero-cost units put in spend order, and the zero-cost units scanned
/// (they do no work, so every budget admits them). The spend order is the
/// plan's explicit priority when it carries one (a sharded fan-out's
/// global-order restriction), else a seed-deterministic shuffle, so
/// truncation does not systematically favor tree-order leaves. Without
/// `in_spend_order` the units stay in frontier order: an unlimited budget
/// admits them all, so their order cannot matter.
FrontierScan StartWalk(const PartitionTree& tree,
                       const std::vector<StratifiedSample>& samples,
                       const Rect& predicate, WorkPlan plan,
                       const EstimatorOptions& opts, bool in_spend_order,
                       uint64_t seed) {
  FrontierScan fs;
  fs.frontier = std::move(plan.frontier);

  QueryAnswer& out = fs.base;
  out.covered_nodes = static_cast<uint32_t>(fs.frontier.covered.size() +
                                            fs.frontier.zero_var.size());
  out.partial_leaves = static_cast<uint32_t>(fs.frontier.partial.size());
  out.nodes_visited = fs.frontier.nodes_visited;
  if (tree.root() >= 0) {
    out.population_rows = tree.node(tree.root()).stats.count;
  }

  // Rows the synopsis never has to look at: everything outside the partial
  // leaves (covered partitions are answered from aggregates; disjoint ones
  // are skipped by the index walk).
  uint64_t partial_rows = 0;
  for (const int32_t id : fs.frontier.partial) {
    partial_rows += tree.node(id).stats.count;
  }
  out.population_rows_skipped = out.population_rows - partial_rows;
  out.exact = fs.frontier.partial.empty() && fs.frontier.zero_var.empty();
  out.scan_units_planned = plan.total_cost;

  // Exact side: merge covered aggregates; 0-variance nodes contribute their
  // constant value with their full cardinality (the paper's rule).
  for (const int32_t id : fs.frontier.covered) {
    fs.covered_stats.Merge(tree.node(id).stats);
  }
  for (const int32_t id : fs.frontier.zero_var) {
    fs.covered_stats.Merge(tree.node(id).stats);
  }

  fs.units = std::move(plan.units);
  fs.partials.resize(fs.units.size());
  for (size_t u = 0; u < fs.units.size(); ++u) {
    PartialScan& p = fs.partials[u];
    p.node = fs.units[u].node;
    p.stratum.n_pop = static_cast<double>(tree.node(p.node).stats.count);
    p.stratum.k_samp = static_cast<double>(fs.units[u].cost);  // sample size
    if (fs.units[u].cost == 0) ScanUnit(tree, samples, predicate, opts, &p);
  }

  if (in_spend_order && !plan.priority.empty()) {
    PASS_DCHECK(plan.priority.size() == fs.units.size());
    fs.order = std::move(plan.priority);
  } else {
    fs.order.resize(fs.units.size());
    std::iota(fs.order.begin(), fs.order.end(), uint32_t{0});
    if (in_spend_order) {
      Rng rng(seed);
      rng.Shuffle(&fs.order);
    }
  }
  fs.order.erase(std::remove_if(fs.order.begin(), fs.order.end(),
                                [&fs](uint32_t u) {
                                  return fs.units[u].cost == 0;
                                }),
                 fs.order.end());
  return fs;
}

/// The budget walk, step two: admits whole units in spend order while each
/// fits the cumulative cap and the soft deadline has not passed, and stops
/// at the first that does not. A unit is all-or-nothing (a partial scan of
/// one leaf's sample would bias its stratum estimator), and stopping
/// rather than skipping makes the admitted set at any cap a prefix of the
/// admitted set at every larger one, which is what lets a session resume
/// from its checkpoint and still match a fresh walk bit for bit. Then
/// rebuilds the dynamic diagnostics in frontier order, the order every
/// estimate accumulates in: the budget decides which leaves are scanned,
/// never the accumulation order.
void AdvanceWalk(const PartitionTree& tree,
                 const std::vector<StratifiedSample>& samples,
                 const Rect& predicate, const EstimatorOptions& opts,
                 const WorkBudget& budget, FrontierScan* fs) {
  const uint64_t cap =
      budget.max_scan_units.value_or(std::numeric_limits<uint64_t>::max());
  for (; fs->cursor < fs->order.size(); ++fs->cursor) {
    const uint32_t u = fs->order[fs->cursor];
    const uint64_t cost = fs->units[u].cost;
    if (fs->used + cost > cap ||
        (budget.soft_deadline.has_value() &&
         std::chrono::steady_clock::now() > *budget.soft_deadline)) {
      break;
    }
    fs->used += cost;
    ScanUnit(tree, samples, predicate, opts, &fs->partials[u]);
  }

  QueryAnswer& out = fs->base;
  out.sample_rows_scanned = fs->used;
  out.matched_sample_rows = 0;
  out.truncated = false;
  fs->observed_min.reset();
  fs->observed_max.reset();
  for (const PartialScan& p : fs->partials) {
    if (!p.scanned) {
      out.truncated = true;
      continue;
    }
    const StratifiedSample::ScanResult& scan = p.stratum.scan;
    out.matched_sample_rows += scan.matched;
    if (scan.matched > 0) {
      fs->observed_min =
          std::min(fs->observed_min.value_or(scan.min), scan.min);
      fs->observed_max =
          std::max(fs->observed_max.value_or(scan.max), scan.max);
    }
  }
}

/// One-shot execution of a plan: one start plus one advance.
FrontierScan ExecutePlan(const PartitionTree& tree,
                         const std::vector<StratifiedSample>& samples,
                         const Rect& predicate, WorkPlan plan,
                         const EstimatorOptions& opts,
                         const AnswerOptions& options) {
  FrontierScan fs =
      StartWalk(tree, samples, predicate, std::move(plan), opts,
                !options.budget.Unlimited(), options.seed);
  AdvanceWalk(tree, samples, predicate, opts, options.budget, &fs);
  return fs;
}

/// Hard bounds need the 0-variance nodes on the *partial* side (their
/// matched cardinality is unknown even though their value is constant).
HardBounds BoundsFor(const PartitionTree& tree, const FrontierScan& fs,
                     AggregateType agg) {
  std::vector<int32_t> bound_partials = fs.frontier.partial;
  bound_partials.insert(bound_partials.end(), fs.frontier.zero_var.begin(),
                        fs.frontier.zero_var.end());
  return ComputeHardBounds(tree, fs.frontier.covered, bound_partials, agg,
                           fs.observed_min, fs.observed_max);
}

/// The SUM and COUNT estimators over a scanned frontier: the exact covered
/// part plus one stratum per partial leaf. A leaf with no sample, or one the
/// budget left unscanned, falls back to its contribution bounds.
SumCountAccumulator FoldFrontier(const PartitionTree& tree,
                                 const FrontierScan& fs, bool use_fpc) {
  SumCountAccumulator acc(fs.covered_stats, use_fpc);
  for (const PartialScan& p : fs.partials) {
    if (HasScan(p)) {
      acc.AddSampled(p.stratum);
    } else {
      acc.AddUnsampled(tree.node(p.node).stats);
    }
  }
  return acc;
}

/// The answer with no evidence of a matching row: the hard-bound midpoint
/// if there are bounds, else 0, with zero confidence.
Estimate NoEvidence(const HardBounds& hard) {
  return hard.valid ? MidpointOverBounds(hard.lb, hard.ub) : Estimate{};
}

/// The fused SUM/COUNT/AVG assembly over a (possibly partially) scanned
/// frontier — a pure function of the FrontierScan, shared by the one-shot
/// fused path and the resumable session so their answers are the same
/// bits whenever their scan state is. The fused AVG is always the ratio
/// estimator, whatever EstimatorOptions::avg_mode says.
MultiAnswer MultiFromFrontier(const PartitionTree& tree,
                              const FrontierScan& fs,
                              const EstimatorOptions& opts) {
  MultiAnswer out;
  out.fused = true;
  out.sum = fs.base;
  out.count = fs.base;
  out.avg = fs.base;

  const HardBounds sum_hard = BoundsFor(tree, fs, AggregateType::kSum);
  if (sum_hard.valid) {
    out.sum.hard_lb = sum_hard.lb;
    out.sum.hard_ub = sum_hard.ub;
  }
  const HardBounds count_hard = BoundsFor(tree, fs, AggregateType::kCount);
  if (count_hard.valid) {
    out.count.hard_lb = count_hard.lb;
    out.count.hard_ub = count_hard.ub;
  }
  const HardBounds avg_hard = BoundsFor(tree, fs, AggregateType::kAvg);
  if (avg_hard.valid) {
    out.avg.hard_lb = avg_hard.lb;
    out.avg.hard_ub = avg_hard.ub;
  }

  const SumCountAccumulator acc = FoldFrontier(tree, fs, opts.use_fpc);
  out.sum.estimate = acc.sum();
  out.count.estimate = acc.count();
  out.sum_count_cov = acc.sum_count_cov();
  out.avg.estimate = RatioEstimate(acc.sum(), acc.count(), acc.sum_count_cov(),
                                   NoEvidence(avg_hard));
  return out;
}

/// The per-aggregate assembly over a scanned frontier: the twin of
/// MultiFromFrontier for one aggregate, with EstimatorOptions::avg_mode
/// choosing the AVG estimator.
QueryAnswer SingleFromFrontier(const PartitionTree& tree,
                               const FrontierScan& fs, AggregateType agg,
                               const EstimatorOptions& opts) {
  QueryAnswer out = fs.base;
  const HardBounds hard = BoundsFor(tree, fs, agg);
  if (hard.valid) {
    out.hard_lb = hard.lb;
    out.hard_ub = hard.ub;
  }

  switch (agg) {
    case AggregateType::kSum:
    case AggregateType::kCount: {
      const SumCountAccumulator acc = FoldFrontier(tree, fs, opts.use_fpc);
      out.estimate = agg == AggregateType::kSum ? acc.sum() : acc.count();
      break;
    }

    case AggregateType::kAvg: {
      if (opts.avg_mode == AvgMode::kRatio) {
        // The ratio of the SUM and COUNT estimators over this frontier with
        // their exact covariance — so a sample-less partial leaf falls back
        // to the same bounds midpoint the SUM/COUNT paths use instead of
        // silently dropping known population mass.
        const SumCountAccumulator acc = FoldFrontier(tree, fs, opts.use_fpc);
        out.estimate = RatioEstimate(acc.sum(), acc.count(),
                                     acc.sum_count_cov(), NoEvidence(hard));
      } else {
        // Paper weights over the covered + 0-variance nodes and the partial
        // leaves with a matched sample row: a budget-skipped leaf matched
        // nothing, so it drops out of the weights.
        std::vector<SampledStratum> strata;
        strata.reserve(fs.partials.size());
        for (const PartialScan& p : fs.partials) strata.push_back(p.stratum);
        out.estimate = PaperWeightsAvg(fs.covered_stats, strata, opts.use_fpc,
                                       NoEvidence(hard));
      }
      break;
    }

    case AggregateType::kMin:
    case AggregateType::kMax: {
      // Point estimate: best value observed among covered partitions (their
      // extrema are attained by matching tuples) and matched sample rows.
      const bool is_min = agg == AggregateType::kMin;
      double best = is_min ? kInf : -kInf;
      if (fs.covered_stats.count > 0) {
        best = is_min ? fs.covered_stats.min : fs.covered_stats.max;
      }
      if (is_min && fs.observed_min) best = std::min(best, *fs.observed_min);
      if (!is_min && fs.observed_max) best = std::max(best, *fs.observed_max);
      if (best == kInf || best == -kInf) {
        // Nothing observed: report the midpoint of the hard bounds.
        best = hard.valid ? 0.5 * (hard.lb + hard.ub) : 0.0;
      }
      out.estimate.value = best;
      out.estimate.variance = 0.0;  // no CLT interval; use the hard bounds
      break;
    }
  }
  return out;
}

/// The tree-backed EstimationSession: a FrontierScan checkpointed in the
/// budget walk's spend order. Each AdvanceTo is one more advance of that
/// walk plus the MultiFromFrontier a one-shot answer runs, so it returns
/// the bits a fresh start plus one advance at the same cumulative cap
/// returns.
class TreeSession final : public EstimationSession {
 public:
  TreeSession(const PartitionTree& tree,
              const std::vector<StratifiedSample>& samples, WorkPlan plan,
              const Rect& predicate, const EstimatorOptions& opts,
              uint64_t seed)
      : tree_(tree),
        samples_(samples),
        predicate_(predicate),
        opts_(opts),
        fs_(StartWalk(tree, samples, predicate, std::move(plan), opts,
                      /*in_spend_order=*/true, seed)) {}

  MultiAnswer AdvanceTo(uint64_t max_scan_units) override {
    WorkBudget budget;
    budget.max_scan_units = max_scan_units;
    AdvanceWalk(tree_, samples_, predicate_, opts_, budget, &fs_);
    return MultiFromFrontier(tree_, fs_, opts_);
  }

  uint64_t PlanCost() const override { return fs_.base.scan_units_planned; }
  uint64_t UnitsScanned() const override { return fs_.used; }

 private:
  const PartitionTree& tree_;
  const std::vector<StratifiedSample>& samples_;
  const Rect predicate_;
  const EstimatorOptions opts_;
  FrontierScan fs_;
};

}  // namespace

Estimate EstimateStratumSum(double n_pop, double k_samp, double s, double ss,
                            bool use_fpc) {
  Estimate out;
  if (k_samp <= 0.0 || n_pop <= 0.0) return out;
  const double mean_phi = s / k_samp;                  // E[pred*a]
  double var_phi = ss / k_samp - mean_phi * mean_phi;  // Var(pred*a)
  var_phi = std::max(var_phi, 0.0);
  out.value = n_pop * mean_phi;
  out.variance =
      n_pop * n_pop * var_phi / k_samp * Fpc(n_pop, k_samp, use_fpc);
  return out;
}

SumCountAccumulator::SumCountAccumulator(const AggregateStats& exact,
                                         bool use_fpc)
    : use_fpc_(use_fpc),
      sum_{exact.sum, 0.0},
      count_{static_cast<double>(exact.count), 0.0} {}

void SumCountAccumulator::AddSampled(const SampledStratum& stratum) {
  const double n = stratum.n_pop;
  const double k = stratum.k_samp;
  // Without the guard an empty sample makes the covariance 0/0, and a NaN
  // survives RatioEstimate's clamp.
  if (k <= 0.0 || n <= 0.0) return;
  const StratifiedSample::ScanResult& scan = stratum.scan;
  const double matched = static_cast<double>(scan.matched);
  AddTo(EstimateStratumSum(n, k, scan.sum, scan.sum_sq, use_fpc_), &sum_);
  AddTo(EstimateStratumSum(n, k, matched, matched, use_fpc_), &count_);
  // n²·Cov_sample(φ·a, φ)/k·fpc, where E[(φa)·φ] = E[φa] because the match
  // indicator φ is 0/1.
  const double mean_sum = scan.sum / k;
  const double cov_sample = mean_sum - mean_sum * (matched / k);
  cov_ += n * n * cov_sample / k * Fpc(n, k, use_fpc_);
}

void SumCountAccumulator::AddUnsampled(const AggregateStats& stratum) {
  const Interval range = SumContribution(stratum);
  AddTo(MidpointOverBounds(range.lo, range.hi), &sum_);
  AddTo(MidpointOverBounds(0.0, static_cast<double>(stratum.count)), &count_);
}

Estimate RatioEstimate(const Estimate& sum, const Estimate& count, double cov,
                       const Estimate& no_evidence) {
  if (count.value <= 0.0) return no_evidence;
  const double ratio = sum.value / count.value;
  const double var =
      (sum.variance - 2.0 * ratio * cov + ratio * ratio * count.variance) /
      (count.value * count.value);
  return {ratio, std::max(var, 0.0)};
}

Estimate PaperWeightsAvg(const AggregateStats& exact,
                         const std::vector<SampledStratum>& strata,
                         bool use_fpc, const Estimate& no_evidence) {
  double n_q = static_cast<double>(exact.count);
  for (const SampledStratum& s : strata) {
    if (s.scan.matched > 0) n_q += s.n_pop;
  }
  if (n_q <= 0.0) return no_evidence;
  Estimate out;
  if (exact.count > 0) {
    out.value = exact.Mean() * (static_cast<double>(exact.count) / n_q);
  }
  for (const SampledStratum& s : strata) {
    if (s.scan.matched == 0) continue;
    const double k = static_cast<double>(s.scan.matched);
    const double w = s.n_pop / n_q;
    out.value += (s.scan.sum / k) * w;
    // V_i(q) = (ss - s^2/K) / k^2 (Section 4.2.1 via phi scaling).
    double v = (s.scan.sum_sq - s.scan.sum * s.scan.sum / s.k_samp) / (k * k);
    v = std::max(v, 0.0) * Fpc(s.n_pop, s.k_samp, use_fpc);
    out.variance += w * w * v;
  }
  return out;
}

WorkPlan Synopsis::PlanFor(const Rect& predicate) const {
  return PlanUnits(tree_, samples_, predicate, false);
}

QueryAnswer Synopsis::AnswerImpl(const Query& query,
                                 const AnswerOptions& options) const {
  const bool use_rule =
      options_.zero_variance_rule && query.agg == AggregateType::kAvg;
  return SingleFromFrontier(
      tree_,
      ExecutePlan(tree_, samples_, query.predicate,
                  PlanUnits(tree_, samples_, query.predicate, use_rule),
                  options_, options),
      query.agg, options_);
}

MultiAnswer Synopsis::AnswerMultiImpl(const Rect& predicate,
                                      const AnswerOptions& options) const {
  return AnswerMultiOverPlan(PlanFor(predicate), predicate, options);
}

QueryAnswer Synopsis::AnswerOverPlan(WorkPlan plan, const Query& query,
                                     const AnswerOptions& options) const {
  // A rule-OFF plan is the wrong frontier for the zero-variance-rule AVG
  // path (callers route AVG through AnswerMultiOverPlan instead).
  PASS_DCHECK(query.agg != AggregateType::kAvg ||
              !options_.zero_variance_rule);
  return SingleFromFrontier(
      tree_,
      ExecutePlan(tree_, samples_, query.predicate, std::move(plan),
                  options_, options),
      query.agg, options_);
}

MultiAnswer Synopsis::AnswerMultiOverPlan(WorkPlan plan,
                                          const Rect& predicate,
                                          const AnswerOptions& options) const {
  return MultiFromFrontier(tree_,
                           ExecutePlan(tree_, samples_, predicate,
                                       std::move(plan), options_, options),
                           options_);
}

std::unique_ptr<EstimationSession> Synopsis::StartSessionImpl(
    const Rect& predicate, uint64_t seed) const {
  return StartSessionOverPlan(PlanFor(predicate), predicate, seed);
}

std::unique_ptr<EstimationSession> Synopsis::StartSessionOverPlan(
    WorkPlan plan, const Rect& predicate, uint64_t seed) const {
  return std::make_unique<TreeSession>(tree_, samples_, std::move(plan),
                                       predicate, options_, seed);
}

}  // namespace pass
