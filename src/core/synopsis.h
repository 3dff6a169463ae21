#ifndef PASS_CORE_SYNOPSIS_H_
#define PASS_CORE_SYNOPSIS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/aqp_system.h"
#include "core/estimator.h"
#include "core/partition_tree.h"
#include "core/stratified_sample.h"

namespace pass {

/// A complete PASS synopsis: the aggregate-annotated partition tree plus
/// the stratified samples attached to its leaves (Figure 2 of the paper).
/// Constructed by the builders in src/partition; answers queries in
/// O(gamma log B + sum of touched sample sizes).
///
/// Also implements the dynamic-update path of Section 4.5: inserts route to
/// a leaf through the partitioning conditions, patch the O(height)
/// aggregates on the way, and maintain the leaf sample with reservoir
/// sampling; deletions patch counts/sums and keep extrema conservative
/// (hard bounds stay valid, they just stop tightening).
class Synopsis final : public AqpSystem {
 public:
  Synopsis(PartitionTree tree, std::vector<StratifiedSample> samples,
           EstimatorOptions options);

  // AqpSystem:
  bool SupportsBudget() const override { return true; }
  std::string Name() const override { return name_; }
  SystemCosts Costs() const override;

  /// The rule-OFF WorkPlan of this predicate (the frontier every fused
  /// answer and every non-AVG aggregate uses): one MCF walk, no sample
  /// row touched. What a serving layer uses to price queries, split
  /// budgets across shards, and then execute without a second walk.
  WorkPlan PlanFor(const Rect& predicate) const;

  /// Price of this query's sampled work in scan units
  /// (= PlanFor(predicate).total_cost).
  uint64_t PlanScanCost(const Rect& predicate) const;

  /// Budgeted answering over a plan the caller already computed with
  /// PlanFor — skips the second MCF walk the budgeted shard fan-out
  /// would otherwise pay. AnswerOverPlan is only valid for aggregates
  /// that use the rule-OFF frontier (everything except AVG under the
  /// zero-variance rule; route AVG through AnswerMultiOverPlan).
  QueryAnswer AnswerOverPlan(WorkPlan plan, const Query& query,
                             const AnswerOptions& options) const;
  MultiAnswer AnswerMultiOverPlan(WorkPlan plan, const Rect& predicate,
                                  const AnswerOptions& options) const;

  /// Opens a resumable fused estimation over a plan the caller computed
  /// with PlanFor — possibly carrying an explicit priority order (the
  /// sharded fan-out's global-order restriction). Same delta-scan /
  /// bit-identity contract as StartSession; the synopsis must outlive the
  /// session.
  std::unique_ptr<EstimationSession> StartSessionOverPlan(
      WorkPlan plan, const Rect& predicate, uint64_t seed) const;

  // --- Introspection --------------------------------------------------------
  const PartitionTree& tree() const { return tree_; }
  const StratifiedSample& leaf_sample(size_t leaf_id) const {
    PASS_DCHECK(leaf_id < samples_.size());
    return samples_[leaf_id];
  }
  size_t NumLeaves() const { return tree_.NumLeaves(); }
  const EstimatorOptions& options() const { return options_; }
  EstimatorOptions& mutable_options() { return options_; }

  /// The kernel tier counters every leaf scan records into (installed by
  /// the registry; nullptr on a synopsis built directly).
  const KernelCache* ScanKernelCache() const override {
    return options_.kernel_cache.get();
  }

  /// Total rows currently summarized.
  uint64_t NumRows() const {
    return tree_.root() < 0 ? 0 : tree_.node(tree_.root()).stats.count;
  }

  /// Synopsis payload bytes: per-node aggregates and rectangles plus the
  /// leaf samples. This is the quantity bounded in the BSS experiments.
  uint64_t StorageBytes() const;

  /// Allocated bytes: same per-node accounting but leaf samples charged
  /// at vector capacity (StratifiedSample::SizeBytes) — the in-memory
  /// footprint including reservoir Reserve slack. >= StorageBytes().
  uint64_t ResidentBytes() const;

  /// Storage under Section 3.4's delta encoding: each leaf sample's
  /// aggregate column stored as float32 deltas from the partition mean
  /// (falling back to raw doubles where quantization would be lossy).
  uint64_t DeltaCompressedStorageBytes() const;

  // --- Dynamic updates (Section 4.5) ---------------------------------------

  /// Inserts a tuple. Returns false if no leaf condition contains the point
  /// (cannot happen when the tree was built with edge conditions widened to
  /// +-inf, which all builders in this repo do).
  bool Insert(const std::vector<double>& preds, double agg);

  /// Deletes one tuple with exactly these values, if the synopsis can route
  /// it to a leaf that has a positive count. Aggregate counts and sums are
  /// patched exactly; extrema remain conservative. If an identical row is
  /// present in the leaf sample, one copy is removed.
  bool Delete(const std::vector<double>& preds, double agg);

  // --- Metadata set by builders ---------------------------------------------
  void set_name(std::string name) { name_ = std::move(name); }
  void set_build_seconds(double s) { build_seconds_ = s; }
  double build_seconds() const { return build_seconds_; }

 protected:
  // AqpSystem hooks (reached through the public non-virtual entry points):
  /// Anytime: spends at most `options.budget` scan units, in the
  /// seed-deterministic priority order; skipped leaves fall back to their
  /// bounds midpoint. An unlimited budget answers in full.
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;
  /// Anytime fused: one MCF walk + one leaf-sample scan yield SUM, COUNT
  /// and AVG with their exact cross-aggregate covariance; all three
  /// truncate together over the one shared execution set, keeping the
  /// covariance exact at every budget.
  MultiAnswer AnswerMultiImpl(const Rect& predicate,
                              const AnswerOptions& options) const override;
  /// Resumable fused estimation over the rule-OFF plan of `predicate`.
  std::unique_ptr<EstimationSession> StartSessionImpl(
      const Rect& predicate, uint64_t seed) const override;

 private:
  PartitionTree tree_;
  std::vector<StratifiedSample> samples_;
  std::vector<size_t> sample_capacity_;  // reservoir capacity per leaf
  EstimatorOptions options_;
  std::string name_ = "PASS";
  double build_seconds_ = 0.0;
  mutable Rng update_rng_{0xBADC0FFEEull};
};

}  // namespace pass

#endif  // PASS_CORE_SYNOPSIS_H_
