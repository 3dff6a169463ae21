// The estimation half of Synopsis: the budget walk over a query's scan
// units, on one synopsis or across shards, and the estimate assembly over
// its result. Synopsis's query methods are defined here, next to the walk
// they run.
#include "core/estimator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "core/answer_merge.h"
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

}  // namespace

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

/// One synopsis's part of a budget walk: its MCF frontier, the scans of
/// its partial-leaf samples so far, and its diagnostics. Every aggregate
/// estimate below is a pure function of this, so a fused SUM/COUNT/AVG
/// answer costs exactly one of these, and a resumable session is one of
/// these per synopsis advanced in place.
struct FrontierScan {
  const Synopsis* synopsis = nullptr;
  PartitionTree::Frontier frontier;
  AggregateStats covered_stats;  // covered + 0-variance nodes merged
  std::vector<WorkUnit> units;   // the plan's costed units, one per partial
  std::vector<PartialScan> partials;
  std::optional<double> observed_min;
  std::optional<double> observed_max;
  QueryAnswer base;   // shared diagnostics; estimate and bounds left empty
  uint64_t used = 0;  // scan units admitted on this synopsis so far
};

namespace {

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
void ScanUnit(const Synopsis& synopsis, const Rect& predicate, PartialScan* p) {
  const PartitionTree::Node& n = synopsis.tree().node(p->node);
  const StratifiedSample& sample =
      synopsis.leaf_sample(static_cast<size_t>(n.leaf_id));
  p->stratum.scan = sample.Scan(predicate, n.data_bounds,
                                synopsis.options().kernel_cache.get());
  p->scanned = true;
}

/// Fills one synopsis's part of a walk from its plan: frontier
/// bookkeeping, covered aggregate merging, one not-yet-scanned PartialScan
/// per partial leaf, and the zero-cost units scanned.
void StartScan(const Synopsis& synopsis, WorkPlan plan, const Rect& predicate,
               FrontierScan* fs) {
  const PartitionTree& tree = synopsis.tree();
  fs->synopsis = &synopsis;
  fs->frontier = std::move(plan.frontier);

  QueryAnswer& out = fs->base;
  out.covered_nodes = static_cast<uint32_t>(fs->frontier.covered.size() +
                                            fs->frontier.zero_var.size());
  out.partial_leaves = static_cast<uint32_t>(fs->frontier.partial.size());
  out.nodes_visited = fs->frontier.nodes_visited;
  out.population_rows = synopsis.NumRows();

  // Rows the synopsis never has to look at: everything outside the partial
  // leaves (covered partitions are answered from aggregates; disjoint ones
  // are skipped by the index walk).
  uint64_t partial_rows = 0;
  for (const int32_t id : fs->frontier.partial) {
    partial_rows += tree.node(id).stats.count;
  }
  out.population_rows_skipped = out.population_rows - partial_rows;
  out.exact = fs->frontier.partial.empty() && fs->frontier.zero_var.empty();
  out.scan_units_planned = plan.total_cost;

  // Exact side: merge covered aggregates; 0-variance nodes contribute their
  // constant value with their full cardinality (the paper's rule).
  for (const int32_t id : fs->frontier.covered) {
    fs->covered_stats.Merge(tree.node(id).stats);
  }
  for (const int32_t id : fs->frontier.zero_var) {
    fs->covered_stats.Merge(tree.node(id).stats);
  }

  fs->units = std::move(plan.units);
  fs->partials.resize(fs->units.size());
  for (size_t u = 0; u < fs->units.size(); ++u) {
    PartialScan& p = fs->partials[u];
    p.node = fs->units[u].node;
    p.stratum.n_pop = static_cast<double>(tree.node(p.node).stats.count);
    p.stratum.k_samp = static_cast<double>(fs->units[u].cost);  // sample size
    if (fs->units[u].cost == 0) ScanUnit(synopsis, predicate, &p);
  }
}

/// Rebuilds one synopsis's dynamic diagnostics after an advance, in
/// frontier order.
void RefreshDiagnostics(FrontierScan* fs) {
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

/// Hard bounds need the 0-variance nodes on the *partial* side (their
/// matched cardinality is unknown even though their value is constant).
HardBounds BoundsFor(const FrontierScan& fs, AggregateType agg) {
  std::vector<int32_t> bound_partials = fs.frontier.partial;
  bound_partials.insert(bound_partials.end(), fs.frontier.zero_var.begin(),
                        fs.frontier.zero_var.end());
  return ComputeHardBounds(fs.synopsis->tree(), fs.frontier.covered,
                           bound_partials, agg, fs.observed_min,
                           fs.observed_max);
}

/// The SUM and COUNT estimators over a scanned frontier: the exact covered
/// part plus one stratum per partial leaf. A leaf with no sample, or one the
/// budget left unscanned, falls back to its contribution bounds.
SumCountAccumulator FoldFrontier(const FrontierScan& fs) {
  const PartitionTree& tree = fs.synopsis->tree();
  SumCountAccumulator acc(fs.covered_stats, fs.synopsis->options().use_fpc);
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
MultiAnswer MultiFromFrontier(const FrontierScan& fs) {
  MultiAnswer out;
  out.fused = true;
  out.sum = fs.base;
  out.count = fs.base;
  out.avg = fs.base;

  const HardBounds sum_hard = BoundsFor(fs, AggregateType::kSum);
  if (sum_hard.valid) {
    out.sum.hard_lb = sum_hard.lb;
    out.sum.hard_ub = sum_hard.ub;
  }
  const HardBounds count_hard = BoundsFor(fs, AggregateType::kCount);
  if (count_hard.valid) {
    out.count.hard_lb = count_hard.lb;
    out.count.hard_ub = count_hard.ub;
  }
  const HardBounds avg_hard = BoundsFor(fs, AggregateType::kAvg);
  if (avg_hard.valid) {
    out.avg.hard_lb = avg_hard.lb;
    out.avg.hard_ub = avg_hard.ub;
  }

  const SumCountAccumulator acc = FoldFrontier(fs);
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
QueryAnswer SingleFromFrontier(const FrontierScan& fs, AggregateType agg) {
  QueryAnswer out = fs.base;
  const HardBounds hard = BoundsFor(fs, agg);
  if (hard.valid) {
    out.hard_lb = hard.lb;
    out.hard_ub = hard.ub;
  }

  switch (agg) {
    case AggregateType::kSum:
    case AggregateType::kCount: {
      const SumCountAccumulator acc = FoldFrontier(fs);
      out.estimate = agg == AggregateType::kSum ? acc.sum() : acc.count();
      break;
    }

    case AggregateType::kAvg: {
      const EstimatorOptions& opts = fs.synopsis->options();
      if (opts.avg_mode == AvgMode::kRatio) {
        // The ratio of the SUM and COUNT estimators over this frontier with
        // their exact covariance — so a sample-less partial leaf falls back
        // to the same bounds midpoint the SUM/COUNT paths use instead of
        // silently dropping known population mass.
        const SumCountAccumulator acc = FoldFrontier(fs);
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

/// The one EstimationSession: a budget walk in spend order, checkpointed
/// between calls. Each AdvanceTo is one more advance of that walk plus the
/// AnswerMulti a one-shot answer runs, so it returns the bits a fresh
/// start plus one advance at the same cumulative cap returns.
class WalkSession final : public EstimationSession {
 public:
  WalkSession(const Rect& predicate, const Synopsis* synopses, WorkPlan* plans,
              size_t n, uint64_t seed)
      : predicate_(predicate),
        walk_(predicate_, synopses, plans, n, /*in_spend_order=*/true, seed) {}
  // The walk points at `predicate_`, so the session stays where it is.
  WalkSession(const WalkSession&) = delete;
  WalkSession& operator=(const WalkSession&) = delete;

  MultiAnswer AdvanceTo(uint64_t max_scan_units,
                        std::optional<SteadyTime> soft_deadline) override {
    WorkBudget budget;
    budget.max_scan_units = max_scan_units;
    budget.soft_deadline = soft_deadline;
    walk_.Advance(budget);
    return walk_.AnswerMulti();
  }

  uint64_t PlanCost() const override { return walk_.PlanCost(); }
  uint64_t UnitsScanned() const override { return walk_.UnitsScanned(); }

 private:
  const Rect predicate_;  // the walk scans against this copy
  BudgetWalk walk_;
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

BudgetWalk::BudgetWalk(const Rect& predicate, const Synopsis* synopses,
                       WorkPlan* plans, size_t n, bool in_spend_order,
                       uint64_t seed)
    : predicate_(&predicate) {
  size_t total = 0;
  for (size_t s = 0; s < n; ++s) total += plans[s].units.size();
  scans_.resize(n);
  order_.reserve(total);
  for (size_t s = 0; s < n; ++s) {
    planned_ += plans[s].total_cost;
    for (size_t u = 0; u < plans[s].units.size(); ++u) {
      order_.push_back({static_cast<uint32_t>(s), static_cast<uint32_t>(u)});
    }
    StartScan(synopses[s], std::move(plans[s]), predicate, &scans_[s]);
  }
  // A seed-deterministic shuffle of every unit, shard-major, so truncation
  // does not systematically favor tree-order leaves or low shards; it
  // depends only on the unit count and the seed.
  if (in_spend_order) {
    Rng rng(seed);
    rng.Shuffle(&order_);
  }
  const auto free = [this](SpendUnit next) {
    return scans_[next.scan].units[next.unit].cost == 0;
  };
  order_.erase(std::remove_if(order_.begin(), order_.end(), free),
               order_.end());
}

BudgetWalk::BudgetWalk(BudgetWalk&& other) noexcept = default;
BudgetWalk::~BudgetWalk() = default;

BudgetWalk BudgetWalk::Once(const Rect& predicate, const Synopsis* synopses,
                            WorkPlan* plans, size_t n,
                            const AnswerOptions& options) {
  BudgetWalk walk(predicate, synopses, plans, n, !options.budget.Unlimited(),
                  options.seed);
  walk.Advance(options.budget);
  return walk;
}

std::unique_ptr<EstimationSession> BudgetWalk::Resumable(
    const Rect& predicate, const Synopsis* synopses, WorkPlan* plans,
    size_t n, uint64_t seed) {
  return std::make_unique<WalkSession>(predicate, synopses, plans, n, seed);
}

void BudgetWalk::Advance(const WorkBudget& budget) {
  const uint64_t cap =
      budget.max_scan_units.value_or(std::numeric_limits<uint64_t>::max());
  for (; cursor_ < order_.size(); ++cursor_) {
    const SpendUnit next = order_[cursor_];
    FrontierScan& fs = scans_[next.scan];
    const uint64_t cost = fs.units[next.unit].cost;
    if (used_ + cost > cap ||
        (budget.soft_deadline.has_value() &&
         std::chrono::steady_clock::now() > *budget.soft_deadline)) {
      break;
    }
    used_ += cost;
    fs.used += cost;
    ScanUnit(*fs.synopsis, *predicate_, &fs.partials[next.unit]);
  }
  for (FrontierScan& fs : scans_) RefreshDiagnostics(&fs);
}

QueryAnswer BudgetWalk::Answer(AggregateType agg) const {
  if (scans_.size() == 1) return SingleFromFrontier(scans_[0], agg);
  if (agg == AggregateType::kAvg) return AnswerMulti().avg;
  std::vector<QueryAnswer> parts;
  parts.reserve(scans_.size());
  for (const FrontierScan& fs : scans_) {
    parts.push_back(SingleFromFrontier(fs, agg));
  }
  return MergeShardAnswers(agg, parts);
}

MultiAnswer BudgetWalk::AnswerMulti() const {
  if (scans_.size() == 1) return MultiFromFrontier(scans_[0]);
  std::vector<MultiAnswer> parts;
  parts.reserve(scans_.size());
  for (const FrontierScan& fs : scans_) parts.push_back(MultiFromFrontier(fs));
  return MergeShardMulti(parts);
}

WorkPlan Synopsis::PlanFor(const Rect& predicate) const {
  return PlanUnits(tree_, samples_, predicate, false);
}

QueryAnswer Synopsis::AnswerImpl(const Query& query,
                                 const AnswerOptions& options) const {
  const bool use_rule =
      options_.zero_variance_rule && query.agg == AggregateType::kAvg;
  WorkPlan plan = PlanUnits(tree_, samples_, query.predicate, use_rule);
  return BudgetWalk::Once(query.predicate, this, &plan, 1, options)
      .Answer(query.agg);
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
  return BudgetWalk::Once(query.predicate, this, &plan, 1, options)
      .Answer(query.agg);
}

MultiAnswer Synopsis::AnswerMultiOverPlan(WorkPlan plan,
                                          const Rect& predicate,
                                          const AnswerOptions& options) const {
  return BudgetWalk::Once(predicate, this, &plan, 1, options).AnswerMulti();
}

std::unique_ptr<EstimationSession> Synopsis::StartSessionImpl(
    const Rect& predicate, uint64_t seed) const {
  WorkPlan plan = PlanFor(predicate);
  return BudgetWalk::Resumable(predicate, this, &plan, 1, seed);
}

}  // namespace pass
