#include "core/synopsis.h"

#include <cmath>

#include "core/delta_encoding.h"

namespace pass {

Synopsis::Synopsis(PartitionTree tree, std::vector<StratifiedSample> samples,
                   EstimatorOptions options)
    : tree_(std::move(tree)),
      samples_(std::move(samples)),
      options_(options) {
  PASS_CHECK_MSG(samples_.size() == tree_.NumLeaves(),
                 "one stratified sample per leaf required");
  sample_capacity_.reserve(samples_.size());
  for (const auto& s : samples_) sample_capacity_.push_back(s.size());
}

QueryAnswer Synopsis::AnswerImpl(const Query& query,
                                 const AnswerOptions& options) const {
  return AnswerWithTree(tree_, samples_, query, options_, options);
}

MultiAnswer Synopsis::AnswerMultiImpl(const Rect& predicate,
                                      const AnswerOptions& options) const {
  return MultiAnswerWithTree(tree_, samples_, predicate, options_, options);
}

std::unique_ptr<EstimationSession> Synopsis::StartSessionImpl(
    const Rect& predicate, uint64_t seed) const {
  return StartSessionOverPlan(PlanFor(predicate), predicate, seed);
}

std::unique_ptr<EstimationSession> Synopsis::StartSessionOverPlan(
    WorkPlan plan, const Rect& predicate, uint64_t seed) const {
  return StartTreeSession(tree_, samples_, std::move(plan), predicate,
                          options_, seed);
}

WorkPlan Synopsis::PlanFor(const Rect& predicate) const {
  return PlanScan(tree_, samples_, predicate, false);
}

uint64_t Synopsis::PlanScanCost(const Rect& predicate) const {
  // Rule-OFF plan: the fused frontier, which is also what the budgeted
  // SUM/COUNT paths execute. (The AVG-only zero-variance rule can only
  // shrink the frontier, so this cost is an upper bound for every path.)
  return PlanFor(predicate).total_cost;
}

QueryAnswer Synopsis::AnswerOverPlan(WorkPlan plan, const Query& query,
                                     const AnswerOptions& options) const {
  // A rule-OFF plan is the wrong frontier for the zero-variance-rule AVG
  // path (callers route AVG through AnswerMultiOverPlan instead).
  PASS_DCHECK(query.agg != AggregateType::kAvg ||
              !options_.zero_variance_rule);
  return pass::AnswerOverPlan(tree_, samples_, std::move(plan), query,
                              options_, options);
}

MultiAnswer Synopsis::AnswerMultiOverPlan(WorkPlan plan,
                                          const Rect& predicate,
                                          const AnswerOptions& options) const {
  return MultiAnswerOverPlan(tree_, samples_, std::move(plan), predicate,
                             options_, options);
}

uint64_t Synopsis::StorageBytes() const {
  // Per node: the four aggregates + sum of squares + two rectangles.
  const size_t d =
      tree_.root() < 0 ? 0 : tree_.node(tree_.root()).condition.NumDims();
  const uint64_t per_node =
      sizeof(AggregateStats) + 2 * d * sizeof(Interval) + 2 * sizeof(int32_t);
  uint64_t total = per_node * tree_.NumNodes();
  // Payload, not allocated capacity: StorageBytes is the BSS-bound /
  // Table 2 accounting quantity (what a serialized synopsis occupies).
  // The in-memory footprint incl. reservation slack is SizeBytes().
  for (const auto& s : samples_) total += s.PayloadBytes();
  return total;
}

uint64_t Synopsis::ResidentBytes() const {
  uint64_t total = StorageBytes();
  for (const auto& s : samples_) {
    total += s.SizeBytes() - s.PayloadBytes();  // reservation slack
  }
  return total;
}

uint64_t Synopsis::DeltaCompressedStorageBytes() const {
  uint64_t total = StorageBytes();
  for (size_t leaf_id = 0; leaf_id < samples_.size(); ++leaf_id) {
    const StratifiedSample& sample = samples_[leaf_id];
    const double mean =
        tree_.node(tree_.leaves()[leaf_id]).stats.Mean();
    const uint64_t raw = sample.size() * sizeof(double);
    const uint64_t packed = DeltaEncodedAggregateBytes(sample, mean);
    total -= raw;
    total += packed;
  }
  return total;
}

SystemCosts Synopsis::Costs() const {
  SystemCosts c;
  c.build_seconds = build_seconds_;
  c.storage_bytes = StorageBytes();
  c.resident_bytes = ResidentBytes();
  return c;
}

bool Synopsis::Insert(const std::vector<double>& preds, double agg) {
  const int32_t leaf = tree_.RouteToLeaf(preds);
  if (leaf < 0) return false;
  // Patch aggregates and data bounds from the leaf up to the root.
  for (int32_t id = leaf; id >= 0; id = tree_.node(id).parent) {
    PartitionTree::Node& n = tree_.mutable_node(id);
    n.stats.Add(agg);
    for (size_t dim = 0; dim < preds.size(); ++dim) {
      n.data_bounds.dim(dim).Expand(preds[dim]);
    }
  }
  // Reservoir step on the leaf sample: the new tuple is the N_i-th element
  // of the leaf's stream; it enters with probability capacity / N_i.
  const PartitionTree::Node& leaf_node = tree_.node(leaf);
  StratifiedSample& sample = samples_[static_cast<size_t>(leaf_node.leaf_id)];
  const size_t capacity =
      sample_capacity_[static_cast<size_t>(leaf_node.leaf_id)];
  if (capacity == 0) return true;
  if (sample.size() < capacity) {
    sample.AddRow(preds, agg);
    return true;
  }
  const uint64_t n_i = leaf_node.stats.count;  // already includes the insert
  const uint64_t j = update_rng_.Below(n_i);
  if (j < capacity) {
    sample.RemoveRow(static_cast<size_t>(j));
    sample.AddRow(preds, agg);
  }
  return true;
}

bool Synopsis::Delete(const std::vector<double>& preds, double agg) {
  const int32_t leaf = tree_.RouteToLeaf(preds);
  if (leaf < 0) return false;
  if (tree_.node(leaf).stats.count == 0) return false;
  for (int32_t id = leaf; id >= 0; id = tree_.node(id).parent) {
    PartitionTree::Node& n = tree_.mutable_node(id);
    PASS_CHECK(n.stats.count > 0);
    --n.stats.count;
    n.stats.sum -= agg;
    n.stats.sum_sq -= agg * agg;
    // min/max and data bounds stay as-is: conservative but still valid for
    // hard bounds and MCF classification.
  }
  // Drop one identical row from the sample if present, so the sample never
  // refers to data that no longer exists.
  const PartitionTree::Node& leaf_node = tree_.node(leaf);
  StratifiedSample& sample = samples_[static_cast<size_t>(leaf_node.leaf_id)];
  for (size_t i = 0; i < sample.size(); ++i) {
    if (sample.agg(i) != agg) continue;
    bool same = true;
    for (size_t dim = 0; dim < preds.size(); ++dim) {
      if (sample.pred(dim, i) != preds[dim]) {
        same = false;
        break;
      }
    }
    if (same) {
      sample.RemoveRow(i);
      break;
    }
  }
  return true;
}

}  // namespace pass
