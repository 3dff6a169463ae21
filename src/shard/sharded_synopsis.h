#ifndef PASS_SHARD_SHARDED_SYNOPSIS_H_
#define PASS_SHARD_SHARDED_SYNOPSIS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/synopsis.h"
#include "partition/builder.h"
#include "shard/parallel_shard_executor.h"
#include "shard/shard_planner.h"

namespace pass {

/// Serving-scale extension beyond the paper: the dataset is partitioned
/// across K independent PASS synopses (one per shard) and every query is
/// answered by merging the per-shard answers with the mergeable-answer
/// algebra (core/answer_merge.h). Because shards partition the rows and
/// sample independently, COUNT/SUM estimates and variances add, AVG is the
/// ratio over the merged SUM and COUNT estimators, and MIN/MAX combine the
/// shard extrema — hard bounds stay deterministic through the merge.
///
/// Every answer and session runs one budget walk (core/estimator.h) over
/// all shards' scan units, so a budget buys the same units however the
/// rows are sharded, and merges the per-shard answers. With one shard this
/// is exactly a plain PASS synopsis (answers are delegated unmerged, bit
/// for bit). With two or more, AVG is always the fused ratio over the
/// merged SUM and COUNT: EstimatorOptions::zero_variance_rule does not
/// apply, and BuildShardedSynopsis rejects AvgMode::kPaperWeights. Shards
/// are planned and scanned in index order on the calling thread: one
/// shard's plan and estimate take a few microseconds, less than handing
/// it to another thread costs, so the only concurrency is many callers
/// each walking every shard.
class ShardedSynopsis final : public AqpSystem {
 public:
  ShardedSynopsis() = default;

  /// Adds one shard's synopsis. Shards must cover disjoint row sets of the
  /// same logical dataset; builders guarantee this.
  void Add(Synopsis synopsis);

  size_t NumShards() const { return shards_.size(); }
  const Synopsis& shard(size_t i) const {
    PASS_DCHECK(i < shards_.size());
    return shards_[i];
  }

  /// Total rows across all shards.
  uint64_t NumRows() const;

  /// Always nullptr; kept only because perfbench/src/serve_mix.cc reads it.
  const ParallelShardExecutor* executor() const { return nullptr; }

  // AqpSystem:
  bool SupportsBudget() const override { return true; }
  std::string Name() const override { return name_; }
  SystemCosts Costs() const override;

  /// Shards share one engine-level set of kernel tier counters (the
  /// registry installs the same one into every shard), so the first
  /// shard's view is the engine's.
  const KernelCache* ScanKernelCache() const override {
    return shards_.empty() ? nullptr : shards_[0].ScanKernelCache();
  }

  /// Total plan cost of this predicate across all shards, in scan units.
  uint64_t PlanScanCost(const Rect& predicate) const;

  void set_name(std::string name) { name_ = std::move(name); }

 protected:
  // AqpSystem hooks (reached through the public non-virtual entry points):
  /// Anytime: one walk spends a finite budget across every shard's units
  /// in one seeded order, then the shard answers merge, truncation flags
  /// ORed. AVG is the `avg` component of the fused merge, over the plan
  /// without the zero-variance rule.
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;
  /// Anytime fused: one MCF walk and one leaf-sample scan per shard,
  /// merged with the exact per-shard Cov(SUM, COUNT).
  MultiAnswer AnswerMultiImpl(const Rect& predicate,
                              const AnswerOptions& options) const override;
  /// Resumable fused estimation: one walk across the shards, checkpointed
  /// between steps and merged with MergeShardMulti.
  std::unique_ptr<EstimationSession> StartSessionImpl(
      const Rect& predicate, uint64_t seed) const override;

 private:
  /// Every shard's rule-OFF plan of `predicate`, in shard order.
  std::vector<WorkPlan> PlanShards(const Rect& predicate) const;

  std::vector<Synopsis> shards_;
  std::string name_ = "Sharded-PASS";
};

/// Everything needed to build a ShardedSynopsis from one dataset.
struct ShardedBuildOptions {
  ShardOptions shard;
  /// Whole-dataset build configuration; each shard gets leaves and
  /// sampling budget proportional to its row count (the fair-total split:
  /// K shards together spend what one synopsis built with `base` would).
  BuildOptions base;
};

/// Plans the shards, builds one PASS synopsis per nonempty shard (an empty
/// shard holds no rows, hence contributes exactly nothing to any merged
/// answer, and is dropped), and assembles the ShardedSynopsis. Returns
/// InvalidArgument for `base.estimator.avg_mode == AvgMode::kPaperWeights`
/// when two or more shards are nonempty, since their AVG merge is the
/// ratio estimator.
Result<ShardedSynopsis> BuildShardedSynopsis(
    const Dataset& data, const ShardedBuildOptions& options);

}  // namespace pass

#endif  // PASS_SHARD_SHARDED_SYNOPSIS_H_
