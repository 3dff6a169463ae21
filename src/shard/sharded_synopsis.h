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
/// With one shard this is exactly a plain PASS synopsis (answers are
/// delegated unmerged, bit for bit). Shard members are answered in index
/// order on the calling thread: one member's plan and estimate take a few
/// microseconds, less than handing it to another thread costs, so the
/// only concurrency is many callers each walking every shard.
class ShardedSynopsis final : public AqpSystem {
 public:
  ShardedSynopsis() = default;

  /// Adds one shard's synopsis. Shards must cover disjoint row sets of the
  /// same logical dataset; builders guarantee this.
  void Add(Synopsis synopsis);

  size_t NumShards() const { return shards_.size(); }
  const Synopsis& shard(size_t i) const {
    PASS_DCHECK(i < shards_.size());
    return *shards_[i];
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
    return shards_.empty() ? nullptr : shards_[0]->ScanKernelCache();
  }

  /// Total plan cost of this predicate across all shards, in scan units.
  uint64_t PlanScanCost(const Rect& predicate) const;

  /// Divides `budget` scan units across shards by interleaving every
  /// shard's work units into one seed-shuffled global priority order and
  /// prefix-admitting at the global cap — each shard's allocation is the
  /// exact cost of its globally admitted units. The contract (checked by
  /// the anytime tests): allocations never over-commit (their sum is at
  /// most `budget`, and exactly the total plan cost once `budget` covers
  /// it), and every per-shard allocation is monotone non-decreasing in
  /// `budget` — the property that lets a sharded session resume into the
  /// same global order a fresh larger-budget run would walk. (The old
  /// largest-remainder apportionment conserved every unit but suffered
  /// the Alabama paradox: a bigger house could shrink a shard's seats,
  /// which breaks resume-equals-restart bit-identity.)
  std::vector<uint64_t> SplitBudget(const Rect& predicate, uint64_t budget,
                                    uint64_t seed = 0) const;

  void set_name(std::string name) { name_ = std::move(name); }

 protected:
  // AqpSystem hooks (reached through the public non-virtual entry points):
  /// Anytime: a finite unit budget is split across shards with the global
  /// interleaved order (SplitBudget above) before the per-shard budgeted
  /// answers are merged; truncation flags OR through the merge. An
  /// unlimited budget answers in full with no split overhead.
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;
  /// Anytime fused: exactly one synopsis evaluation per shard (one MCF
  /// walk + one leaf-sample scan), merged with the exact per-shard
  /// Cov(SUM, COUNT). The AVG path of Answer() is this merge's `avg`
  /// component.
  MultiAnswer AnswerMultiImpl(const Rect& predicate,
                              const AnswerOptions& options) const override;
  /// Resumable fused estimation across shards: one member session per
  /// shard, advanced along the same global interleaved order the budgeted
  /// fan-out admits from, merged with MergeShardMulti. K = 1 delegates to
  /// the single shard's session unmerged.
  std::unique_ptr<EstimationSession> StartSessionImpl(
      const Rect& predicate, uint64_t seed) const override;

 private:
  /// Everything a budgeted fan-out needs, priced with ONE MCF walk per
  /// shard: each shard's WorkPlan (handed back to the shard for
  /// execution, so the walk is never repeated — and carrying its slice of
  /// the global priority order) and its AnswerOptions — exact admitted
  /// unit budget, pass-through soft deadline, decorrelated per-shard
  /// seeds.
  struct BudgetedFanOut {
    std::vector<WorkPlan> plans;
    std::vector<AnswerOptions> options;
  };
  BudgetedFanOut PrepareBudgetedFanOut(const Rect& predicate,
                                       const AnswerOptions& options) const;

  std::vector<std::unique_ptr<Synopsis>> shards_;
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
/// answer, and is dropped), and assembles the ShardedSynopsis.
Result<ShardedSynopsis> BuildShardedSynopsis(
    const Dataset& data, const ShardedBuildOptions& options);

}  // namespace pass

#endif  // PASS_SHARD_SHARDED_SYNOPSIS_H_
