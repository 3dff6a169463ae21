#include "baselines/agg_plus_uniform.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/hard_bounds.h"
#include "partition/hierarchy.h"
#include "partition/kd_builder.h"
#include "partition/partitioner_1d.h"
#include "partition/variance.h"
#include "stats/prefix_sums.h"
#include "stats/sampling.h"

namespace pass {

AggregatePlusUniformSystem::AggregatePlusUniformSystem(
    const Dataset& data, PartitionTree tree, double sample_rate,
    uint64_t seed, EstimatorOptions options, std::string name)
    : tree_(std::move(tree)),
      sample_(data.NumPredDims()),
      population_rows_(data.NumRows()),
      options_(options),
      name_(std::move(name)) {
  Rng rng(seed);
  const size_t n = data.NumRows();
  const size_t k = static_cast<size_t>(
      std::llround(sample_rate * static_cast<double>(n)));
  sample_.Reserve(k);
  sample_leaf_.reserve(k);
  std::vector<double> preds(data.NumPredDims());
  for (const size_t row : SampleWithoutReplacement(n, k, &rng)) {
    for (size_t dim = 0; dim < preds.size(); ++dim) {
      preds[dim] = data.pred(dim, row);
    }
    sample_.AddRow(preds, data.agg(row));
    const int32_t leaf = tree_.RouteToLeaf(preds);
    PASS_CHECK_MSG(leaf >= 0, "tree conditions must tile the space");
    sample_leaf_.push_back(tree_.node(leaf).leaf_id);
  }
}

QueryAnswer AggregatePlusUniformSystem::AnswerImpl(
    const Query& query, const AnswerOptions& options) const {
  (void)options;  // no anytime path: answers in full
  QueryAnswer out;
  out.population_rows = population_rows_;
  out.sample_rows_scanned = sample_.size();

  const PartitionTree::Frontier frontier =
      tree_.ComputeMcf(query.predicate, /*zero_variance_as_covered=*/false);
  out.covered_nodes = static_cast<uint32_t>(frontier.covered.size());
  out.partial_leaves = static_cast<uint32_t>(frontier.partial.size());
  out.nodes_visited = frontier.nodes_visited;

  AggregateStats covered;
  for (const int32_t id : frontier.covered) {
    covered.Merge(tree_.node(id).stats);
  }
  uint64_t partial_rows = 0;
  std::vector<char> is_partial(tree_.NumLeaves(), 0);
  for (const int32_t id : frontier.partial) {
    partial_rows += tree_.node(id).stats.count;
    is_partial[static_cast<size_t>(tree_.node(id).leaf_id)] = 1;
  }
  out.population_rows_skipped = population_rows_ - partial_rows;
  out.exact = frontier.partial.empty();

  // Scan the global uniform sample for the gap (matched rows inside
  // partially-overlapped partitions); min/max observed along the way.
  const size_t k_samp = sample_.size();
  const size_t d = sample_.NumDims();
  double gap_sum = 0.0;
  double gap_sum_sq = 0.0;
  uint64_t gap_matched = 0;
  std::optional<double> observed_min;
  std::optional<double> observed_max;
  for (size_t i = 0; i < k_samp; ++i) {
    if (!is_partial[static_cast<size_t>(sample_leaf_[i])]) continue;
    bool match = true;
    for (size_t dim = 0; dim < d; ++dim) {
      if (!query.predicate.dim(dim).Contains(sample_.pred(dim, i))) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    const double a = sample_.agg(i);
    ++gap_matched;
    gap_sum += a;
    gap_sum_sq += a * a;
    observed_min = observed_min ? std::min(*observed_min, a) : a;
    observed_max = observed_max ? std::max(*observed_max, a) : a;
  }

  out.matched_sample_rows = gap_matched;
  const HardBounds hard =
      ComputeHardBounds(tree_, frontier.covered, frontier.partial, query.agg,
                        observed_min, observed_max);
  if (hard.valid) {
    out.hard_lb = hard.lb;
    out.hard_ub = hard.ub;
  }

  const double n_pop = static_cast<double>(population_rows_);
  const double k_total = static_cast<double>(k_samp);
  switch (query.agg) {
    case AggregateType::kSum:
    case AggregateType::kCount: {
      const bool is_sum = query.agg == AggregateType::kSum;
      const double s = is_sum ? gap_sum : static_cast<double>(gap_matched);
      const double ss =
          is_sum ? gap_sum_sq : static_cast<double>(gap_matched);
      const StratumEstimate gap =
          EstimateStratumSum(n_pop, k_total, s, ss, options_.use_fpc);
      out.estimate.value = (is_sum ? covered.sum
                                   : static_cast<double>(covered.count)) +
                           gap.value;
      out.estimate.variance = gap.variance;
      break;
    }
    case AggregateType::kAvg: {
      const double km = static_cast<double>(gap_matched);
      const StratumEstimate es = EstimateStratumSum(
          n_pop, k_total, gap_sum, gap_sum_sq, options_.use_fpc);
      const StratumEstimate ec =
          EstimateStratumSum(n_pop, k_total, km, km, options_.use_fpc);
      const double fpc = options_.use_fpc
                             ? FinitePopulationCorrection(n_pop, k_total)
                             : 1.0;
      const double cov =
          n_pop * n_pop / k_total *
          (gap_sum / k_total - (gap_sum / k_total) * (km / k_total)) * fpc;
      const double a = covered.sum + es.value;
      const double b = static_cast<double>(covered.count) + ec.value;
      if (b <= 0.0) {
        out.estimate = {0.0, 0.0};
      } else {
        const double ratio = a / b;
        out.estimate.value = ratio;
        out.estimate.variance = std::max(
            0.0, (es.variance - 2.0 * ratio * cov +
                  ratio * ratio * ec.variance) /
                     (b * b));
      }
      break;
    }
    case AggregateType::kMin:
    case AggregateType::kMax: {
      const bool is_min = query.agg == AggregateType::kMin;
      double best = is_min ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity();
      if (covered.count > 0) best = is_min ? covered.min : covered.max;
      if (is_min && observed_min) best = std::min(best, *observed_min);
      if (!is_min && observed_max) best = std::max(best, *observed_max);
      if (!std::isfinite(best)) best = 0.0;
      out.estimate.value = best;
      break;
    }
  }
  return out;
}

SystemCosts AggregatePlusUniformSystem::Costs() const {
  SystemCosts c;
  c.build_seconds = build_seconds_;
  const size_t d = sample_.NumDims();
  const uint64_t tree_bytes =
      tree_.NumNodes() *
          (sizeof(AggregateStats) + 2 * d * sizeof(Interval)) +
      sample_leaf_.size() * sizeof(int32_t);
  c.storage_bytes = sample_.PayloadBytes() + tree_bytes;
  c.resident_bytes = sample_.SizeBytes() + tree_bytes;
  return c;
}

namespace {

/// Hill-climbing boundary selection on a sorted optimization sample: the
/// objective is the worst per-partition SUM variance (what a gap estimate
/// inside that partition costs). Moves shift one internal cut halfway
/// toward either neighbor; the best improving move is taken greedily.
std::vector<size_t> HillClimbSampleCuts(const PrefixSums& prefix,
                                        double ratio, size_t m, size_t b,
                                        size_t max_iterations) {
  const SampleVariance var(&prefix, ratio);
  std::vector<size_t> cuts = EqualDepthBoundaries(m, b);
  auto partition_cost = [&](size_t lo, size_t hi) {
    return var.SumVariance(lo, hi, lo, hi);
  };
  auto objective = [&](const std::vector<size_t>& c) {
    double worst = 0.0;
    for (size_t i = 0; i + 1 < c.size(); ++i) {
      worst = std::max(worst, partition_cost(c[i], c[i + 1]));
    }
    return worst;
  };
  double best_obj = objective(cuts);
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    double move_obj = best_obj;
    size_t move_idx = 0;
    size_t move_pos = 0;
    for (size_t i = 1; i + 1 < cuts.size(); ++i) {
      for (const size_t candidate :
           {(cuts[i - 1] + cuts[i]) / 2, (cuts[i] + cuts[i + 1]) / 2}) {
        if (candidate <= cuts[i - 1] || candidate >= cuts[i + 1] ||
            candidate == cuts[i]) {
          continue;
        }
        const size_t old = cuts[i];
        cuts[i] = candidate;
        const double obj = objective(cuts);
        cuts[i] = old;
        if (obj < move_obj) {
          move_obj = obj;
          move_idx = i;
          move_pos = candidate;
        }
      }
    }
    if (move_idx == 0) break;  // local optimum
    cuts[move_idx] = move_pos;
    best_obj = move_obj;
  }
  return cuts;
}

}  // namespace

AggregatePlusUniformSystem MakeAqpPlusPlus(const Dataset& data,
                                           const AqpPlusPlusOptions& options) {
  Stopwatch timer;
  const size_t n = data.NumRows();
  const std::vector<uint32_t> perm = data.SortedPermutation(options.dim);
  const auto& col = data.pred_column(options.dim);

  Rng rng(options.seed);
  const size_t m = std::min(options.opt_sample_size, n);
  const std::vector<size_t> picks = SampleWithoutReplacement(n, m, &rng);
  std::vector<double> sample_pred(m);
  std::vector<double> sample_agg(m);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t row = perm[picks[i]];
    sample_pred[i] = col[row];
    sample_agg[i] = data.agg(row);
  }
  const PrefixSums prefix(sample_agg);
  const double ratio = static_cast<double>(n) / static_cast<double>(m);
  const std::vector<size_t> sample_cuts = HillClimbSampleCuts(
      prefix, ratio, m, options.num_partitions, options.max_iterations);

  // Map the sample cuts to dataset positions (value thresholds).
  std::vector<size_t> cuts;
  cuts.push_back(0);
  for (size_t i = 1; i + 1 < sample_cuts.size(); ++i) {
    const size_t c = sample_cuts[i];
    if (c == 0 || c > m) continue;
    const double threshold = sample_pred[c - 1];
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (col[perm[mid]] <= threshold) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    cuts.push_back(lo);
  }
  cuts.push_back(n);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Flat "tree": one root over B leaf partitions (AQP++ has no hierarchy).
  std::vector<RowSlice> leaf_slices;
  PartitionTree tree = BuildHierarchyFrom1DCuts(
      data, perm, cuts, options.dim,
      /*fanout=*/std::max<size_t>(2, cuts.size()), &leaf_slices);

  AggregatePlusUniformSystem system(data, std::move(tree),
                                    options.sample_rate, options.seed ^ 0xA9,
                                    options.estimator, "AQP++");
  system.set_build_seconds(timer.ElapsedSeconds());
  return system;
}

AggregatePlusUniformSystem MakeKdUs(const Dataset& data,
                                    const KdUsOptions& options) {
  Stopwatch timer;
  KdBuildOptions kd;
  kd.partition_dims = options.partition_dims;
  kd.max_leaves = options.max_leaves;
  kd.expansion = KdExpansion::kBreadthFirst;
  kd.max_depth_imbalance = options.max_depth_imbalance;
  kd.seed = options.seed;
  KdBuildResult result = BuildKdPartition(data, kd);
  AggregatePlusUniformSystem system(data, std::move(result.tree),
                                    options.sample_rate, options.seed ^ 0xB7,
                                    options.estimator, "KD-US");
  system.set_build_seconds(timer.ElapsedSeconds());
  return system;
}

}  // namespace pass
