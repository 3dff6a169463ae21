#include "core/estimator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "core/hard_bounds.h"

namespace pass {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Fpc(double n_pop, double k_samp, bool enabled) {
  if (!enabled) return 1.0;
  return FinitePopulationCorrection(n_pop, k_samp);
}

/// One partially-overlapped leaf: its population, its sample size, and the
/// matched-tuple moments of the single scan over its stratified sample.
/// `scanned` is false when the work budget excluded this leaf — the
/// estimators then use the same bounds-midpoint fallback a sample-less
/// leaf always gets.
struct PartialScan {
  int32_t node = -1;
  double n_pop = 0.0;
  double k_samp = 0.0;
  bool scanned = true;
  StratifiedSample::ScanResult scan;
};

/// Everything one MCF walk plus one (possibly budget-limited) pass over
/// the partial-leaf samples yields. Every aggregate estimate below is a
/// pure function of this, so a fused SUM/COUNT/AVG answer costs exactly
/// one of these.
struct FrontierScan {
  PartitionTree::Frontier frontier;
  AggregateStats covered_stats;  // covered + 0-variance nodes merged
  std::vector<PartialScan> partials;
  std::optional<double> observed_min;
  std::optional<double> observed_max;
  QueryAnswer base;  // shared diagnostics; estimate and bounds left empty
};

/// Whether a partial leaf's sampled moments may enter an estimate. A leaf
/// the budget skipped is treated exactly like a leaf that never had a
/// sample: deterministic fallback instead of sampled estimation.
bool HasScan(const PartialScan& p) { return p.scanned && p.k_samp > 0.0; }

/// The spend-priority order of a plan's units: the explicit permutation
/// when the plan carries one (a sharded fan-out's global-order
/// restriction), else a seed-deterministic shuffle. One definition so the
/// one-shot executor and the resumable session can never disagree.
std::vector<uint32_t> SpendOrder(const WorkPlan& plan, uint64_t seed) {
  if (!plan.priority.empty()) {
    PASS_DCHECK(plan.priority.size() == plan.units.size());
    return plan.priority;
  }
  std::vector<uint32_t> order(plan.units.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  Rng rng(seed);
  rng.Shuffle(&order);
  return order;
}

/// Selects which of the plan's units a finite budget admits: units are
/// visited in the spend-priority order (built only for a finite budget;
/// an unlimited one admits everything) and admitted while their whole
/// cost still fits (partial scans of one leaf's sample would bias the
/// stratum estimator, so a unit is all-or-nothing); the walk STOPS at the
/// first nonzero-cost unit that does not fit. The prefix-stop rule trades
/// a little budget utilization for monotonicity: the admitted set at a
/// smaller cap is always a prefix — hence a subset — of the admitted set
/// at a larger one, which is what lets a resumable session replay the
/// order from a checkpoint and still match a fresh run bit for bit.
/// Zero-cost units always execute — they do no work. Admission is a pure
/// function of (plan, seed, cap); the soft deadline is enforced later,
/// at scan time, where the clock actually advances.
std::vector<char> SelectUnits(const WorkPlan& plan, uint64_t seed,
                              const WorkBudget& budget) {
  std::vector<char> execute(plan.units.size(), 1);
  if (budget.Unlimited()) return execute;
  const uint64_t cap =
      budget.max_scan_units.value_or(std::numeric_limits<uint64_t>::max());
  uint64_t used = 0;
  bool stopped = false;
  for (const uint32_t i : SpendOrder(plan, seed)) {
    const uint64_t cost = plan.units[i].cost;
    if (cost == 0) continue;  // free: stays admitted
    if (!stopped && used + cost <= cap) {
      used += cost;
    } else {
      stopped = true;
      execute[i] = 0;
    }
  }
  return execute;
}

/// The scan-free head of plan execution: frontier bookkeeping, covered
/// aggregate merging, and one not-yet-scanned PartialScan record per
/// partial leaf. Shared by the one-shot executor and the resumable
/// session so both assemble answers from identical state.
FrontierScan InitFrontierScan(const PartitionTree& tree, WorkPlan plan) {
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

  fs.partials.reserve(fs.frontier.partial.size());
  for (const int32_t id : fs.frontier.partial) {
    const PartitionTree::Node& n = tree.node(id);
    PASS_CHECK_MSG(n.leaf_id >= 0, "partial node is not a finalized leaf");
    PartialScan p;
    p.node = id;
    p.n_pop = static_cast<double>(n.stats.count);
    p.k_samp = 0.0;  // filled below; a leaf's sample size is its unit cost
    p.scanned = false;
    fs.partials.push_back(p);
  }
  for (size_t u = 0; u < plan.units.size(); ++u) {
    fs.partials[u].k_samp = static_cast<double>(plan.units[u].cost);
  }
  return fs;
}

/// The execute half: consumes a WorkPlan up to `budget`, scanning admitted
/// units and leaving the rest to the deterministic fallback. With an
/// unlimited budget this performs exactly the operations (in exactly the
/// order) of the pre-split scan-everything routine, so unlimited answers
/// are bit-identical by construction.
FrontierScan ExecutePlan(const PartitionTree& tree,
                         const std::vector<StratifiedSample>& samples,
                         const Rect& predicate, WorkPlan plan,
                         const EstimatorOptions& opts,
                         const WorkBudget& budget, uint64_t seed) {
  const std::vector<char> execute = SelectUnits(plan, seed, budget);
  FrontierScan fs = InitFrontierScan(tree, std::move(plan));
  QueryAnswer& out = fs.base;

  // Scan the admitted stratified samples once, in frontier order — the
  // budget decides *which* leaves are scanned, never the accumulation
  // order, so estimates stay reproducible across budget paths. The soft
  // deadline is enforced right here, between unit scans (the admission
  // pass above runs in microseconds, so only the scan loop actually
  // watches the clock advance); once it expires, every remaining nonzero
  // unit falls back — a unit scan is never torn.
  for (size_t u = 0; u < fs.partials.size(); ++u) {
    PartialScan& p = fs.partials[u];
    const PartitionTree::Node& n = tree.node(p.node);
    const StratifiedSample& sample = samples[static_cast<size_t>(n.leaf_id)];
    p.scanned = execute[u] != 0;
    if (p.scanned && sample.size() > 0 &&
        budget.soft_deadline.has_value() &&
        std::chrono::steady_clock::now() > *budget.soft_deadline) {
      p.scanned = false;
    }
    if (p.scanned) {
      // Active-dim pruning: the leaf's tight bounding box proves dims the
      // query fully covers, so the kernel tests contested dims only.
      // Bit-identical to the unpruned scan (see StratifiedSample::Scan).
      p.scan = sample.Scan(predicate, n.data_bounds,
                           opts.kernel_cache.get());
      out.sample_rows_scanned += sample.size();
      out.matched_sample_rows += p.scan.matched;
      if (p.scan.matched > 0) {
        fs.observed_min = fs.observed_min
                              ? std::min(*fs.observed_min, p.scan.min)
                              : p.scan.min;
        fs.observed_max = fs.observed_max
                              ? std::max(*fs.observed_max, p.scan.max)
                              : p.scan.max;
      }
    } else {
      out.truncated = true;
    }
  }
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

/// SUM/COUNT estimate over a scanned frontier: exact covered contribution
/// plus one stratum estimator per scanned partial leaf. A leaf with no
/// sample — or one the budget left unscanned — falls back to the midpoint
/// of its deterministic contribution bounds, with the variance of a
/// uniform distribution over that range.
Estimate AdditiveEstimate(const PartitionTree& tree, const FrontierScan& fs,
                          bool is_sum, bool use_fpc) {
  Estimate out;
  double value = is_sum ? fs.covered_stats.sum
                        : static_cast<double>(fs.covered_stats.count);
  double variance = 0.0;
  for (const PartialScan& p : fs.partials) {
    if (!HasScan(p)) {
      const AggregateStats& s = tree.node(p.node).stats;
      const double cnt = static_cast<double>(s.count);
      double lo;
      double hi;
      if (is_sum) {
        lo = (s.max <= 0.0) ? s.sum : cnt * std::min(0.0, s.min);
        hi = (s.min >= 0.0) ? s.sum : cnt * std::max(0.0, s.max);
      } else {
        lo = 0.0;
        hi = cnt;
      }
      value += 0.5 * (lo + hi);
      variance += (hi - lo) * (hi - lo) / 12.0;
      continue;
    }
    const double s =
        is_sum ? p.scan.sum : static_cast<double>(p.scan.matched);
    const double ss =
        is_sum ? p.scan.sum_sq : static_cast<double>(p.scan.matched);
    const StratumEstimate est =
        EstimateStratumSum(p.n_pop, p.k_samp, s, ss, use_fpc);
    value += est.value;
    variance += est.variance;
  }
  out.value = value;
  out.variance = variance;
  return out;
}

/// Exact Cov(SUM estimator, COUNT estimator), summed over the independent
/// partial strata: per stratum n²·Cov_sample(φ·a, φ)/k·fpc, where
/// E[(φa)·φ] = E[φa] because the match indicator φ is 0/1. Covered nodes
/// are deterministic (no covariance); sample-less and budget-skipped
/// leaves use independent midpoint fallbacks for SUM and COUNT and
/// contribute 0.
double SumCountCovariance(const FrontierScan& fs, bool use_fpc) {
  double cov = 0.0;
  for (const PartialScan& p : fs.partials) {
    if (!HasScan(p)) continue;
    const double k = static_cast<double>(p.scan.matched);
    const double mean_x = p.scan.sum / p.k_samp;
    const double mean_y = k / p.k_samp;
    const double cov_sample = p.scan.sum / p.k_samp - mean_x * mean_y;
    cov += p.n_pop * p.n_pop * cov_sample / p.k_samp *
           Fpc(p.n_pop, p.k_samp, use_fpc);
  }
  return cov;
}

/// Delta-method ratio SUM/COUNT. With no evidence of any matching tuple it
/// reports the hard-bound midpoint if available, else 0, with zero
/// confidence.
Estimate RatioEstimate(const Estimate& sum, const Estimate& count,
                       double cov, const HardBounds& hard) {
  if (count.value <= 0.0) {
    return hard.valid ? MidpointOverBounds(hard.lb, hard.ub) : Estimate{};
  }
  const double ratio = sum.value / count.value;
  const double var =
      (sum.variance - 2.0 * ratio * cov + ratio * ratio * count.variance) /
      (count.value * count.value);
  return {ratio, std::max(var, 0.0)};
}

/// The fused SUM/COUNT/AVG assembly over a (possibly partially) scanned
/// frontier — a pure function of the FrontierScan, shared by the one-shot
/// fused path and the resumable session so their answers are the same
/// bits whenever their scan state is.
MultiAnswer MultiFromFrontier(const PartitionTree& tree,
                              const FrontierScan& fs,
                              const EstimatorOptions& opts) {
  MultiAnswer out;
  out.fused = true;
  out.sum = fs.base;
  out.count = fs.base;
  out.avg = fs.base;

  HardBounds avg_hard;
  if (opts.compute_hard_bounds) {
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
    avg_hard = BoundsFor(tree, fs, AggregateType::kAvg);
    if (avg_hard.valid) {
      out.avg.hard_lb = avg_hard.lb;
      out.avg.hard_ub = avg_hard.ub;
    }
  }

  out.sum.estimate = AdditiveEstimate(tree, fs, true, opts.use_fpc);
  out.count.estimate = AdditiveEstimate(tree, fs, false, opts.use_fpc);
  out.sum_count_cov = SumCountCovariance(fs, opts.use_fpc);
  out.avg.estimate = RatioEstimate(out.sum.estimate, out.count.estimate,
                                   out.sum_count_cov, avg_hard);
  return out;
}

}  // namespace

WorkPlan PlanScan(const PartitionTree& tree,
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

StratumEstimate EstimateStratumSum(double n_pop, double k_samp, double s,
                                   double ss, bool use_fpc) {
  StratumEstimate out;
  if (k_samp <= 0.0 || n_pop <= 0.0) return out;
  const double mean_phi = s / k_samp;                  // E[pred*a]
  double var_phi = ss / k_samp - mean_phi * mean_phi;  // Var(pred*a)
  var_phi = std::max(var_phi, 0.0);
  out.value = n_pop * mean_phi;
  out.variance =
      n_pop * n_pop * var_phi / k_samp * Fpc(n_pop, k_samp, use_fpc);
  return out;
}

QueryAnswer AnswerWithTree(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           const Query& query, const EstimatorOptions& opts) {
  return AnswerWithTree(tree, samples, query, opts, AnswerOptions{});
}

QueryAnswer AnswerWithTree(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           const Query& query, const EstimatorOptions& opts,
                           const AnswerOptions& answer_options) {
  const bool use_rule =
      opts.zero_variance_rule && query.agg == AggregateType::kAvg;
  return AnswerOverPlan(tree, samples,
                        PlanScan(tree, samples, query.predicate, use_rule),
                        query, opts, answer_options);
}

QueryAnswer AnswerOverPlan(const PartitionTree& tree,
                           const std::vector<StratifiedSample>& samples,
                           WorkPlan plan, const Query& query,
                           const EstimatorOptions& opts,
                           const AnswerOptions& answer_options) {
  const FrontierScan fs =
      ExecutePlan(tree, samples, query.predicate, std::move(plan), opts,
                  answer_options.budget, answer_options.seed);

  QueryAnswer out = fs.base;
  HardBounds hard;
  if (opts.compute_hard_bounds) {
    hard = BoundsFor(tree, fs, query.agg);
    if (hard.valid) {
      out.hard_lb = hard.lb;
      out.hard_ub = hard.ub;
    }
  }

  switch (query.agg) {
    case AggregateType::kSum:
    case AggregateType::kCount:
      out.estimate = AdditiveEstimate(
          tree, fs, query.agg == AggregateType::kSum, opts.use_fpc);
      break;

    case AggregateType::kAvg: {
      if (opts.avg_mode == AvgMode::kRatio) {
        // The ratio of the additive SUM and COUNT estimators over this
        // frontier with their exact covariance — so a sample-less partial
        // leaf falls back to the same bounds midpoint the SUM/COUNT paths
        // use instead of silently dropping known population mass.
        const Estimate sum = AdditiveEstimate(tree, fs, true, opts.use_fpc);
        const Estimate count =
            AdditiveEstimate(tree, fs, false, opts.use_fpc);
        out.estimate = RatioEstimate(
            sum, count, SumCountCovariance(fs, opts.use_fpc), hard);
      } else {
        // Paper weights: relevant partitions are the covered + 0-variance
        // nodes and the partial leaves with at least one matched sample
        // (budget-skipped leaves behave like no-match leaves and drop out
        // of the weights).
        double n_q = static_cast<double>(fs.covered_stats.count);
        for (const PartialScan& p : fs.partials) {
          if (p.scan.matched > 0) n_q += p.n_pop;
        }
        if (n_q <= 0.0) {
          out.estimate =
              hard.valid ? MidpointOverBounds(hard.lb, hard.ub) : Estimate{};
          break;
        }
        double value =
            fs.covered_stats.count > 0
                ? fs.covered_stats.Mean() *
                      (static_cast<double>(fs.covered_stats.count) / n_q)
                : 0.0;
        double variance = 0.0;
        for (const PartialScan& p : fs.partials) {
          if (p.scan.matched == 0) continue;
          const double k = static_cast<double>(p.scan.matched);
          const double w = p.n_pop / n_q;
          value += (p.scan.sum / k) * w;
          // V_i(q) = (ss - s^2/K) / k^2 (Section 4.2.1 via phi scaling).
          double v = (p.scan.sum_sq - p.scan.sum * p.scan.sum / p.k_samp) /
                     (k * k);
          v = std::max(v, 0.0) * Fpc(p.n_pop, p.k_samp, opts.use_fpc);
          variance += w * w * v;
        }
        out.estimate.value = value;
        out.estimate.variance = variance;
      }
      break;
    }

    case AggregateType::kMin:
    case AggregateType::kMax: {
      // Point estimate: best value observed among covered partitions (their
      // extrema are attained by matching tuples) and matched sample rows.
      const bool is_min = query.agg == AggregateType::kMin;
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

MultiAnswer MultiAnswerWithTree(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                const Rect& predicate,
                                const EstimatorOptions& opts) {
  return MultiAnswerWithTree(tree, samples, predicate, opts, AnswerOptions{});
}

MultiAnswer MultiAnswerWithTree(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                const Rect& predicate,
                                const EstimatorOptions& opts,
                                const AnswerOptions& answer_options) {
  // One walk without the AVG-only zero-variance rule: the frontier is the
  // one the per-aggregate SUM/COUNT paths use, so their estimates stay
  // bit-identical, and a shared frontier is what makes the directly
  // computed Cov(SUM, COUNT) exact for the AVG delta method.
  return MultiAnswerOverPlan(tree, samples,
                             PlanScan(tree, samples, predicate, false),
                             predicate, opts, answer_options);
}

MultiAnswer MultiAnswerOverPlan(const PartitionTree& tree,
                                const std::vector<StratifiedSample>& samples,
                                WorkPlan plan, const Rect& predicate,
                                const EstimatorOptions& opts,
                                const AnswerOptions& answer_options) {
  const FrontierScan fs =
      ExecutePlan(tree, samples, predicate, std::move(plan), opts,
                  answer_options.budget, answer_options.seed);
  return MultiFromFrontier(tree, fs, opts);
}

namespace {

/// The tree-backed EstimationSession: a checkpoint into the one spend-
/// priority order the one-shot executor walks. State is the FrontierScan
/// a fresh run would have built, grown monotonically; every AdvanceTo
/// recomputes the dynamic diagnostics in frontier order and reassembles
/// through the same MultiFromFrontier a fresh run uses, so answers are
/// bit-identical to fresh budgeted evaluations by construction.
class TreeSession final : public EstimationSession {
 public:
  TreeSession(const PartitionTree& tree,
              const std::vector<StratifiedSample>& samples, WorkPlan plan,
              Rect predicate, const EstimatorOptions& opts, uint64_t seed)
      : tree_(tree),
        samples_(samples),
        predicate_(std::move(predicate)),
        opts_(opts),
        plan_cost_(plan.total_cost),
        units_(plan.units) {
    const std::vector<uint32_t> order = SpendOrder(plan, seed);
    fs_ = InitFrontierScan(tree_, std::move(plan));
    static_base_ = fs_.base;
    // Zero-cost units are admitted at every budget level (they do no
    // work), so scan them up front; the checkpointed walk below meters
    // nonzero units only.
    for (uint32_t u = 0; u < units_.size(); ++u) {
      if (units_[u].cost == 0) ScanUnit(u);
    }
    nonzero_order_.reserve(order.size());
    for (const uint32_t u : order) {
      if (units_[u].cost > 0) nonzero_order_.push_back(u);
    }
  }

  MultiAnswer AdvanceTo(uint64_t max_scan_units) override {
    // Resume the prefix walk from the checkpoint: admit whole units while
    // they fit the cumulative cap, stop at the first that does not —
    // exactly where a fresh SelectUnits at this cap stops.
    while (cursor_ < nonzero_order_.size()) {
      const uint32_t u = nonzero_order_[cursor_];
      const uint64_t cost = units_[u].cost;
      if (used_ + cost > max_scan_units) break;
      used_ += cost;
      ScanUnit(u);
      ++cursor_;
    }
    return Assemble();
  }

  uint64_t PlanCost() const override { return plan_cost_; }
  uint64_t UnitsScanned() const override { return used_; }

 private:
  void ScanUnit(uint32_t u) {
    PartialScan& p = fs_.partials[u];
    const PartitionTree::Node& n = tree_.node(p.node);
    // Same active-dim pruning as ExecutePlan: resumed sessions must stay
    // bit-identical to fresh budgeted runs, so both sites prune with the
    // same leaf box.
    p.scan = samples_[static_cast<size_t>(n.leaf_id)].Scan(
        predicate_, n.data_bounds, opts_.kernel_cache.get());
    p.scanned = true;
  }

  MultiAnswer Assemble() {
    // Rebuild the dynamic diagnostics in frontier order — the order the
    // one-shot executor accumulates them in — from the per-unit scans.
    fs_.base = static_base_;
    fs_.observed_min.reset();
    fs_.observed_max.reset();
    for (size_t u = 0; u < fs_.partials.size(); ++u) {
      const PartialScan& p = fs_.partials[u];
      if (!p.scanned) {
        fs_.base.truncated = true;
        continue;
      }
      fs_.base.sample_rows_scanned += units_[u].cost;
      fs_.base.matched_sample_rows += p.scan.matched;
      if (p.scan.matched > 0) {
        fs_.observed_min = fs_.observed_min
                               ? std::min(*fs_.observed_min, p.scan.min)
                               : p.scan.min;
        fs_.observed_max = fs_.observed_max
                               ? std::max(*fs_.observed_max, p.scan.max)
                               : p.scan.max;
      }
    }
    return MultiFromFrontier(tree_, fs_, opts_);
  }

  const PartitionTree& tree_;
  const std::vector<StratifiedSample>& samples_;
  const Rect predicate_;
  const EstimatorOptions opts_;
  const uint64_t plan_cost_;
  std::vector<WorkUnit> units_;
  std::vector<uint32_t> nonzero_order_;  // spend order, nonzero units only
  size_t cursor_ = 0;                    // next candidate in nonzero_order_
  uint64_t used_ = 0;                    // units admitted so far
  FrontierScan fs_;
  QueryAnswer static_base_;  // plan-time diagnostics, scan-independent
};

}  // namespace

std::unique_ptr<EstimationSession> StartTreeSession(
    const PartitionTree& tree, const std::vector<StratifiedSample>& samples,
    WorkPlan plan, Rect predicate, const EstimatorOptions& opts,
    uint64_t seed) {
  return std::make_unique<TreeSession>(tree, samples, std::move(plan),
                                       std::move(predicate), opts, seed);
}

}  // namespace pass
