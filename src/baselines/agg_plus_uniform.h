#ifndef PASS_BASELINES_AGG_PLUS_UNIFORM_H_
#define PASS_BASELINES_AGG_PLUS_UNIFORM_H_

#include <string>
#include <vector>

#include "core/aqp_system.h"
#include "core/estimator.h"
#include "core/partition_tree.h"
#include "core/stratified_sample.h"
#include "storage/dataset.h"

namespace pass {

/// The shared skeleton of the AQP++ [36] and KD-US (Section 5.4) baselines:
/// precomputed aggregates over some partitioning, combined with one
/// *global uniform* sample — the defining contrast to PASS, which attaches
/// stratified samples to the partitions themselves.
///
/// A query is answered as  exact(covered partitions) + gap, where the gap
/// (matched tuples inside partially-overlapped partitions) is estimated
/// from the uniform sample. Since the aggregates are available, the system
/// also reports deterministic hard bounds.
class AggregatePlusUniformSystem final : public AqpSystem {
 public:
  /// The tree's conditions must tile the predicate space (true for all
  /// builders in this repo) so sampled rows can be routed to leaves.
  AggregatePlusUniformSystem(const Dataset& data, PartitionTree tree,
                             double sample_rate, uint64_t seed,
                             EstimatorOptions options, std::string name);

  std::string Name() const override { return name_; }
  SystemCosts Costs() const override;

  const PartitionTree& tree() const { return tree_; }
  size_t sample_size() const { return sample_.size(); }
  void set_build_seconds(double s) { build_seconds_ = s; }

 protected:
  /// Answers in full; this system has no anytime path, so the budget in
  /// `options` is ignored (SupportsBudget() stays false).
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;

 private:
  PartitionTree tree_;
  StratifiedSample sample_;            // one global uniform sample
  std::vector<int32_t> sample_leaf_;   // leaf_id of each sampled row
  uint64_t population_rows_;
  EstimatorOptions options_;
  std::string name_;
  double build_seconds_ = 0.0;
};

/// AQP++ [36]: hill-climbing choice of B range-aggregate positions over one
/// predicate column (the paper's 1-D experiments replace the BP-cube with
/// exactly this: "partition the dataset with the hill-climbing algorithm
/// then pre-compute aggregations on the partitions to combine with the
/// sampling results").
struct AqpPlusPlusOptions {
  size_t num_partitions = 64;
  double sample_rate = 0.005;
  size_t dim = 0;
  size_t opt_sample_size = 10'000;
  uint64_t seed = 42;
  /// AVG is always the ratio of the SUM and COUNT estimates: paper weights
  /// (AvgMode::kPaperWeights) have no meaning for the gap stratum, which
  /// spans the whole table, so avg_mode is ignored here and the registry's
  /// "agg_uniform" rejects kPaperWeights with InvalidArgument.
  EstimatorOptions estimator;
};
AggregatePlusUniformSystem MakeAqpPlusPlus(const Dataset& data,
                                           const AqpPlusPlusOptions& options);

/// KD-US (Section 5.4): a breadth-first (balanced) kd-tree of aggregates
/// over the partition dims plus a global uniform sample.
struct KdUsOptions {
  std::vector<size_t> partition_dims;
  size_t max_leaves = 1024;
  double sample_rate = 0.005;
  uint64_t seed = 42;
  /// As for AQP++: AVG is the ratio estimate whatever avg_mode says.
  EstimatorOptions estimator;
};
AggregatePlusUniformSystem MakeKdUs(const Dataset& data,
                                    const KdUsOptions& options);

}  // namespace pass

#endif  // PASS_BASELINES_AGG_PLUS_UNIFORM_H_
