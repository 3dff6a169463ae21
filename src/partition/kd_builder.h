#ifndef PASS_PARTITION_KD_BUILDER_H_
#define PASS_PARTITION_KD_BUILDER_H_

#include <cstdint>
#include <vector>

#include "core/partition_tree.h"
#include "core/query.h"
#include "partition/hierarchy.h"
#include "storage/dataset.h"

namespace pass {

/// How leaves are chosen for expansion while growing the kd partition tree.
enum class KdExpansion {
  /// KD-PASS (Section 4.4): always expand the leaf containing the
  /// (approximate) maximum-variance query, subject to the depth-balance
  /// constraint.
  kMaxVariance,
  /// KD-US baseline (Section 5.4): always expand the shallowest leaf,
  /// ties broken randomly — a balanced kd-tree.
  kBreadthFirst,
};

struct KdBuildOptions {
  std::vector<size_t> partition_dims;  // columns the tree splits on
  size_t max_leaves = 1024;
  KdExpansion expansion = KdExpansion::kMaxVariance;
  AggregateType optimize_for = AggregateType::kAvg;
  size_t opt_sample_size = 10'000;  // m
  int max_depth_imbalance = 2;      // Section 5.4 balance constraint
  uint64_t seed = 42;
};

/// A grown kd partition tree plus the row permutation and per-leaf slices
/// needed to draw stratified samples (or, for KD-US, to locate sampled
/// rows' leaves).
struct KdBuildResult {
  PartitionTree tree;
  std::vector<uint32_t> perm;
  std::vector<RowSlice> leaf_slices;  // indexed by leaf_id
};

KdBuildResult BuildKdPartition(const Dataset& data,
                               const KdBuildOptions& options);

}  // namespace pass

#endif  // PASS_PARTITION_KD_BUILDER_H_
