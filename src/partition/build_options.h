#ifndef PASS_PARTITION_BUILD_OPTIONS_H_
#define PASS_PARTITION_BUILD_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"

namespace pass {

/// Which algorithm chooses the leaf partitioning (Section 4).
enum class PartitionStrategy {
  /// Equal-depth (equal-frequency) cuts: the EQ baseline of Section 5.3,
  /// and the provably optimal COUNT partitioning in 1D (Lemma A.1).
  kEqualDepth,
  /// Equal-width cuts over the predicate value range.
  kEqualWidth,
  /// The paper's `**` algorithm: approximate DP on a uniform optimization
  /// sample with discretized max-variance oracles (Section 4.3.1). In
  /// more than one partition dimension this automatically becomes the
  /// greedy kd expansion (Section 4.4).
  kAdp,
  /// The monotone DP with the *exact* per-partition oracle. Exponentially
  /// more oracle work than kAdp; small inputs / tests only.
  kDpExact,
  /// Greedy kd-tree expansion by approximate max-variance leaf (KD-PASS).
  kKdGreedy,
  /// Breadth-first kd-tree expansion (the balanced tree used by KD-US).
  kKdBreadthFirst,
};

inline const char* StrategyName(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kEqualDepth:
      return "equal-depth";
    case PartitionStrategy::kEqualWidth:
      return "equal-width";
    case PartitionStrategy::kAdp:
      return "adp";
    case PartitionStrategy::kDpExact:
      return "dp-exact";
    case PartitionStrategy::kKdGreedy:
      return "kd-greedy";
    case PartitionStrategy::kKdBreadthFirst:
      return "kd-bf";
  }
  return "?";
}

/// How the total sampling budget K is split across the leaf strata.
enum class SampleAllocation {
  /// K_i proportional to leaf size N_i (a uniform sample stratified by the
  /// leaves; the paper's setting).
  kProportional,
  /// K_i = K / B for every leaf (classic stratified sampling).
  kEqual,
  /// Neyman allocation: K_i proportional to N_i * sigma_i. An extension —
  /// optimal for SUM under fixed total budget.
  kNeyman,
};

/// The paper's minimum meaningful overlap fraction delta (Section 4.2):
/// the variance oracles consider only queries that cover at least
/// delta * m of the m optimization-sample rows. The 1-D and the kd
/// builders both read it.
inline constexpr double kMinOverlapFraction = 0.005;

/// Everything needed to construct a PASS synopsis from a dataset.
struct BuildOptions {
  /// Maximum number of leaf partitions k (construction-time budget tau_c).
  size_t num_leaves = 64;

  /// Sampling budget: `sample_budget` rows if set, else
  /// sample_rate * N (query-latency budget tau_q).
  double sample_rate = 0.005;
  std::optional<size_t> sample_budget;
  size_t min_leaf_sample = 2;
  SampleAllocation allocation = SampleAllocation::kProportional;

  /// Predicate columns the partitioning is built over. Defaults to all
  /// columns of the dataset. (Queries may still predicate every column —
  /// that is the workload-shift scenario of Section 5.4.1.)
  std::vector<size_t> partition_dims;

  PartitionStrategy strategy = PartitionStrategy::kAdp;
  /// The query type whose worst-case variance the optimizer minimizes.
  AggregateType optimize_for = AggregateType::kSum;

  /// Optimization-sample size m (Section 4.2).
  size_t opt_sample_size = 10'000;

  /// Shape of the aggregate hierarchy stacked on the 1-D leaves.
  size_t fanout = 2;
  /// Maximum leaf-depth difference for kd expansion (Section 5.4 uses 2).
  int max_depth_imbalance = 2;

  uint64_t seed = 42;

  /// Estimator configuration baked into the synopsis.
  EstimatorOptions estimator;
};

}  // namespace pass

#endif  // PASS_PARTITION_BUILD_OPTIONS_H_
