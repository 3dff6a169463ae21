#include "shard/sharded_synopsis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

namespace pass {

void ShardedSynopsis::Add(Synopsis synopsis) {
  shards_.push_back(std::move(synopsis));
}

uint64_t ShardedSynopsis::NumRows() const {
  uint64_t total = 0;
  for (const Synopsis& shard : shards_) total += shard.NumRows();
  return total;
}

uint64_t ShardedSynopsis::PlanScanCost(const Rect& predicate) const {
  uint64_t total = 0;
  for (const Synopsis& shard : shards_) total += shard.PlanScanCost(predicate);
  return total;
}

std::vector<WorkPlan> ShardedSynopsis::PlanShards(const Rect& predicate) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  std::vector<WorkPlan> plans;
  plans.reserve(shards_.size());
  for (const Synopsis& shard : shards_) {
    plans.push_back(shard.PlanFor(predicate));
  }
  return plans;
}

QueryAnswer ShardedSynopsis::AnswerImpl(const Query& query,
                                        const AnswerOptions& options) const {
  // One shard needs no merging: delegate, keeping the answer bit-identical
  // to the plain synopsis (including the AVG estimator path).
  if (shards_.size() == 1) return shards_[0].Answer(query, options);
  std::vector<WorkPlan> plans = PlanShards(query.predicate);
  return BudgetWalk::Once(query.predicate, shards_.data(), plans.data(),
                          plans.size(), options)
      .Answer(query.agg);
}

MultiAnswer ShardedSynopsis::AnswerMultiImpl(
    const Rect& predicate, const AnswerOptions& options) const {
  std::vector<WorkPlan> plans = PlanShards(predicate);
  return BudgetWalk::Once(predicate, shards_.data(), plans.data(), plans.size(),
                          options)
      .AnswerMulti();
}

std::unique_ptr<EstimationSession> ShardedSynopsis::StartSessionImpl(
    const Rect& predicate, uint64_t seed) const {
  std::vector<WorkPlan> plans = PlanShards(predicate);
  return BudgetWalk::Resumable(predicate, shards_.data(), plans.data(),
                               plans.size(), seed);
}

SystemCosts ShardedSynopsis::Costs() const {
  SystemCosts total;
  for (const Synopsis& shard : shards_) {
    const SystemCosts c = shard.Costs();
    total.build_seconds += c.build_seconds;
    total.storage_bytes += c.storage_bytes;
    total.resident_bytes += c.resident_bytes;
  }
  return total;
}

Result<ShardedSynopsis> BuildShardedSynopsis(
    const Dataset& data, const ShardedBuildOptions& options) {
  const ShardPlanner planner(options.shard);
  Result<std::vector<Dataset>> shards = planner.Split(data);
  if (!shards.ok()) return shards.status();

  // Two or more shards answer AVG as the ratio over the merged SUM and
  // COUNT; the paper-weights estimator has no merge.
  const size_t nonempty = static_cast<size_t>(std::count_if(
      shards->begin(), shards->end(),
      [](const Dataset& shard) { return shard.NumRows() != 0; }));
  if (nonempty >= 2 &&
      options.base.estimator.avg_mode == AvgMode::kPaperWeights) {
    return Status::InvalidArgument(
        "AvgMode::kPaperWeights needs a single shard: a sharded AVG is the "
        "ratio over the merged SUM and COUNT");
  }

  const double n = static_cast<double>(data.NumRows());
  ShardedSynopsis sharded;
  for (size_t s = 0; s < shards->size(); ++s) {
    const Dataset& shard_data = (*shards)[s];
    if (shard_data.NumRows() == 0) continue;  // contributes nothing
    const double fraction = static_cast<double>(shard_data.NumRows()) / n;
    BuildOptions shard_options = options.base;
    // Fair-total split: leaves and stored-sample budget proportional to
    // the shard's row share (sample_rate is per-row, so it already is).
    shard_options.num_leaves = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround(static_cast<double>(options.base.num_leaves) *
                           fraction)));
    if (options.base.sample_budget.has_value()) {
      shard_options.sample_budget = std::max<size_t>(
          1, static_cast<size_t>(std::lround(
                 static_cast<double>(*options.base.sample_budget) *
                 fraction)));
    }
    // Distinct per-shard streams; shard 0 keeps the base seed so K=1
    // reproduces the unsharded build bit for bit.
    shard_options.seed = options.base.seed + s * 7919;
    Result<Synopsis> built = BuildSynopsis(shard_data, shard_options);
    if (!built.ok()) return built.status();
    sharded.Add(std::move(built).value());
  }
  if (sharded.NumShards() == 0) {
    return Status::FailedPrecondition("every shard is empty");
  }
  char name[64];
  std::snprintf(name, sizeof(name), "Sharded-PASS[%zux %s]",
                sharded.NumShards(),
                ShardStrategyName(options.shard.strategy));
  sharded.set_name(name);
  return sharded;
}

}  // namespace pass
