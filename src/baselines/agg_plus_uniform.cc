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
  // partially-overlapped partitions): one stratum spanning the whole
  // table, beside the exact covered aggregates.
  SampledStratum gap;
  gap.n_pop = static_cast<double>(population_rows_);
  gap.k_samp = static_cast<double>(sample_.size());
  const size_t d = sample_.NumDims();
  for (size_t i = 0; i < sample_.size(); ++i) {
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
    gap.scan.min = gap.scan.matched > 0 ? std::min(gap.scan.min, a) : a;
    gap.scan.max = gap.scan.matched > 0 ? std::max(gap.scan.max, a) : a;
    ++gap.scan.matched;
    gap.scan.sum += a;
    gap.scan.sum_sq += a * a;
  }

  out.matched_sample_rows = gap.scan.matched;
  std::optional<double> observed_min;
  std::optional<double> observed_max;
  if (gap.scan.matched > 0) {
    observed_min = gap.scan.min;
    observed_max = gap.scan.max;
  }
  const HardBounds hard =
      ComputeHardBounds(tree_, frontier.covered, frontier.partial, query.agg,
                        observed_min, observed_max);
  if (hard.valid) {
    out.hard_lb = hard.lb;
    out.hard_ub = hard.ub;
  }

  SumCountAccumulator acc(covered, options_.use_fpc);
  if (sample_.size() > 0) {
    acc.AddSampled(gap);
  } else {
    // No global sample, so no gap estimate: each partial leaf falls back to
    // its contribution bounds, as a sample-less PASS leaf does.
    for (const int32_t id : frontier.partial) {
      acc.AddUnsampled(tree_.node(id).stats);
    }
  }
  switch (query.agg) {
    case AggregateType::kSum:
      out.estimate = acc.sum();
      break;
    case AggregateType::kCount:
      out.estimate = acc.count();
      break;
    case AggregateType::kAvg:
      // With no evidence of a matching row the answer reads 0.
      out.estimate = RatioEstimate(acc.sum(), acc.count(), acc.sum_count_cov(),
                                   Estimate{});
      break;
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

/// Moves the hill climb takes at most before it stops short of a local
/// optimum.
constexpr size_t kHillClimbIterations = 60;

/// Hill-climbing boundary selection on a sorted optimization sample: the
/// objective is the worst per-partition SUM variance (what a gap estimate
/// inside that partition costs). Moves shift one internal cut halfway
/// toward either neighbor; the best improving move is taken greedily.
std::vector<size_t> HillClimbSampleCuts(const PrefixSums& prefix,
                                        double ratio, size_t m, size_t b) {
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
  for (size_t iter = 0; iter < kHillClimbIterations; ++iter) {
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
  const std::vector<size_t> sample_cuts =
      HillClimbSampleCuts(prefix, ratio, m, options.num_partitions);

  const std::vector<size_t> cuts =
      MapSampleCutsToData(sample_cuts, sample_pred, col, perm);

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
  kd.seed = options.seed;
  KdBuildResult result = BuildKdPartition(data, kd);
  AggregatePlusUniformSystem system(data, std::move(result.tree),
                                    options.sample_rate, options.seed ^ 0xB7,
                                    options.estimator, "KD-US");
  system.set_build_seconds(timer.ElapsedSeconds());
  return system;
}

}  // namespace pass
