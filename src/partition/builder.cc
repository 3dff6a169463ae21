#include "partition/builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "geom/kd_split.h"
#include "partition/kd_builder.h"
#include "partition/max_variance.h"
#include "partition/partitioner_1d.h"
#include "stats/sampling.h"

namespace pass {
namespace {

Status ValidateOptions(const Dataset& data, const BuildOptions& options) {
  if (data.NumRows() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.num_leaves < 1) {
    return Status::InvalidArgument("num_leaves must be >= 1");
  }
  if (options.sample_rate < 0.0 || options.sample_rate > 1.0) {
    return Status::InvalidArgument("sample_rate must be in [0, 1]");
  }
  if (options.fanout < 2) {
    return Status::InvalidArgument("fanout must be >= 2");
  }
  for (const size_t dim : options.partition_dims) {
    if (dim >= data.NumPredDims()) {
      return Status::InvalidArgument("partition dim out of range");
    }
  }
  // More than one dim always builds through the kd path.
  const size_t split_dims = options.partition_dims.empty()
                                ? data.NumPredDims()
                                : options.partition_dims.size();
  if (split_dims > kMaxKdDims) {
    return Status::InvalidArgument(
        "a kd partition splits on at most " + std::to_string(kMaxKdDims) +
        " dims");
  }
  return Status::Ok();
}

std::vector<size_t> EffectiveDims(const Dataset& data,
                                  const BuildOptions& options) {
  if (!options.partition_dims.empty()) return options.partition_dims;
  std::vector<size_t> dims(data.NumPredDims());
  std::iota(dims.begin(), dims.end(), size_t{0});
  return dims;
}

Result<PartitionBuildResult> Build1DPartition(const Dataset& data,
                                              const BuildOptions& options,
                                              size_t dim) {
  const size_t n = data.NumRows();
  const size_t k = options.num_leaves;
  std::vector<uint32_t> perm = data.SortedPermutation(dim);
  const auto& col = data.pred_column(dim);

  std::vector<size_t> cuts;
  switch (options.strategy) {
    case PartitionStrategy::kEqualDepth: {
      for (const size_t pos : EqualDepthBoundaries(n, k)) {
        cuts.push_back(SnapToValueChange(col, perm, pos));
      }
      break;
    }
    case PartitionStrategy::kEqualWidth: {
      const double lo = col[perm.front()];
      const double hi = col[perm.back()];
      cuts.push_back(0);
      for (size_t i = 1; i < k; ++i) {
        const double threshold =
            lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(k);
        const auto it = std::upper_bound(
            perm.begin(), perm.end(), threshold,
            [&col](double t, uint32_t row) { return t < col[row]; });
        cuts.push_back(static_cast<size_t>(it - perm.begin()));
      }
      cuts.push_back(n);
      break;
    }
    case PartitionStrategy::kAdp:
    case PartitionStrategy::kDpExact: {
      if (options.optimize_for == AggregateType::kCount &&
          options.strategy == PartitionStrategy::kAdp) {
        // Lemma A.1: equal-size partitions are optimal for COUNT in 1D; no
        // DP needed.
        for (const size_t pos : EqualDepthBoundaries(n, k)) {
          cuts.push_back(SnapToValueChange(col, perm, pos));
        }
        break;
      }
      Rng rng(options.seed);
      const size_t m = std::min(options.opt_sample_size, n);
      const std::vector<size_t> picks = SampleWithoutReplacement(n, m, &rng);
      // Sampling positions of the sorted permutation keeps the sample
      // sorted by predicate value for free.
      std::vector<double> sample_pred(m);
      std::vector<double> sample_agg(m);
      for (size_t i = 0; i < m; ++i) {
        const uint32_t row = perm[picks[i]];
        sample_pred[i] = col[row];
        sample_agg[i] = data.agg(row);
      }
      const PrefixSums prefix(sample_agg);
      const double ratio = static_cast<double>(n) / static_cast<double>(m);
      const SampleVariance var(&prefix, ratio);
      const size_t window = std::max<size_t>(
          1, static_cast<size_t>(
                 std::llround(kMinOverlapFraction * static_cast<double>(m))));
      const size_t min_query = window;

      MaxVarOracle oracle;
      if (options.strategy == PartitionStrategy::kDpExact) {
        oracle = [&var, &options, min_query](size_t b, size_t e) {
          return ExactMaxVariance(var, options.optimize_for, b, e, min_query);
        };
      } else if (options.optimize_for == AggregateType::kAvg) {
        AvgWindowOracle avg_oracle(&prefix, window);
        oracle = [avg_oracle = std::move(avg_oracle)](size_t b, size_t e) {
          return avg_oracle.Query(b, e);
        };
      } else {
        oracle = [&var, &options](size_t b, size_t e) {
          return MedianSplitMaxVariance(var, options.optimize_for, b, e);
        };
      }
      const DpResult dp = DpPartition1D(m, k, oracle);
      cuts = MapSampleCutsToData(dp.boundaries, sample_pred, col, perm);
      break;
    }
    case PartitionStrategy::kKdGreedy:
    case PartitionStrategy::kKdBreadthFirst:
      return Status::Internal("kd strategies handled by the kd path");
  }

  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  PASS_CHECK(cuts.front() == 0 && cuts.back() == n);

  PartitionBuildResult out;
  out.perm = std::move(perm);
  out.tree = BuildHierarchyFrom1DCuts(data, out.perm, cuts, dim,
                                      options.fanout, &out.leaf_slices);
  return out;
}

Result<PartitionBuildResult> BuildKdPath(const Dataset& data,
                                         const BuildOptions& options,
                                         const std::vector<size_t>& dims) {
  KdBuildOptions kd;
  kd.partition_dims = dims;
  kd.max_leaves = options.num_leaves;
  kd.optimize_for = options.optimize_for;
  kd.opt_sample_size = options.opt_sample_size;
  kd.max_depth_imbalance = options.max_depth_imbalance;
  kd.seed = options.seed;
  switch (options.strategy) {
    case PartitionStrategy::kKdBreadthFirst:
    case PartitionStrategy::kEqualDepth:
    case PartitionStrategy::kEqualWidth:
      kd.expansion = KdExpansion::kBreadthFirst;
      break;
    default:
      kd.expansion = KdExpansion::kMaxVariance;
      break;
  }
  KdBuildResult kd_result = BuildKdPartition(data, kd);
  PartitionBuildResult out;
  out.tree = std::move(kd_result.tree);
  out.perm = std::move(kd_result.perm);
  out.leaf_slices = std::move(kd_result.leaf_slices);
  return out;
}

}  // namespace

Result<PartitionBuildResult> BuildPartitionOnly(const Dataset& data,
                                                const BuildOptions& options) {
  Status status = ValidateOptions(data, options);
  if (!status.ok()) return status;
  const std::vector<size_t> dims = EffectiveDims(data, options);
  const bool kd_strategy =
      options.strategy == PartitionStrategy::kKdGreedy ||
      options.strategy == PartitionStrategy::kKdBreadthFirst;
  if (dims.size() == 1 && !kd_strategy) {
    return Build1DPartition(data, options, dims[0]);
  }
  return BuildKdPath(data, options, dims);
}

std::vector<StratifiedSample> DrawLeafSamples(
    const Dataset& data, const std::vector<uint32_t>& perm,
    const std::vector<RowSlice>& leaf_slices, const PartitionTree& tree,
    const BuildOptions& options) {
  const size_t n = data.NumRows();
  const size_t d = data.NumPredDims();
  const size_t budget =
      options.sample_budget.value_or(static_cast<size_t>(std::llround(
          options.sample_rate * static_cast<double>(n))));
  const size_t num_leaves = leaf_slices.size();

  // Per-leaf target sizes under the allocation policy.
  std::vector<double> weight(num_leaves, 0.0);
  double total_weight = 0.0;
  for (size_t i = 0; i < num_leaves; ++i) {
    const double n_i =
        static_cast<double>(leaf_slices[i].second - leaf_slices[i].first);
    switch (options.allocation) {
      case SampleAllocation::kProportional:
        weight[i] = n_i;
        break;
      case SampleAllocation::kEqual:
        weight[i] = 1.0;
        break;
      case SampleAllocation::kNeyman: {
        const int32_t node_id = tree.leaves()[i];
        weight[i] = n_i * std::sqrt(tree.node(node_id).stats.Variance());
        break;
      }
    }
    total_weight += weight[i];
  }
  if (total_weight <= 0.0) {
    // Degenerate (e.g. all-constant data under Neyman): fall back.
    for (size_t i = 0; i < num_leaves; ++i) {
      weight[i] = static_cast<double>(leaf_slices[i].second -
                                      leaf_slices[i].first);
      total_weight += weight[i];
    }
  }

  Rng rng(options.seed ^ 0x5EEDu);
  std::vector<StratifiedSample> samples;
  samples.reserve(num_leaves);
  std::vector<double> preds(d);
  for (size_t i = 0; i < num_leaves; ++i) {
    const size_t leaf_rows = leaf_slices[i].second - leaf_slices[i].first;
    size_t target = static_cast<size_t>(std::llround(
        static_cast<double>(budget) * weight[i] / total_weight));
    target = std::max(target, options.min_leaf_sample);
    target = std::min(target, leaf_rows);
    StratifiedSample sample(d);
    sample.Reserve(target);
    for (const size_t offset :
         SampleWithoutReplacement(leaf_rows, target, &rng)) {
      const uint32_t row = perm[leaf_slices[i].first + offset];
      for (size_t dim = 0; dim < d; ++dim) preds[dim] = data.pred(dim, row);
      sample.AddRow(preds, data.agg(row));
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

Result<Synopsis> BuildSynopsis(const Dataset& data,
                               const BuildOptions& options) {
  Stopwatch timer;
  Result<PartitionBuildResult> partition = BuildPartitionOnly(data, options);
  if (!partition.ok()) return partition.status();
  std::vector<StratifiedSample> samples = DrawLeafSamples(
      data, partition->perm, partition->leaf_slices, partition->tree,
      options);
  Synopsis synopsis(std::move(partition->tree), std::move(samples),
                    options.estimator);
  synopsis.set_build_seconds(timer.ElapsedSeconds());
  synopsis.set_name(std::string("PASS[") + StrategyName(options.strategy) +
                    ",k=" + std::to_string(options.num_leaves) + "]");
  return synopsis;
}

}  // namespace pass
