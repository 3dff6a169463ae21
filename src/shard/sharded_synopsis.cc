#include "shard/sharded_synopsis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "core/answer_merge.h"

namespace pass {

void ShardedSynopsis::Add(Synopsis synopsis) {
  shards_.push_back(std::make_unique<Synopsis>(std::move(synopsis)));
}

uint64_t ShardedSynopsis::NumRows() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->NumRows();
  return total;
}

namespace {

/// One work unit's coordinates in the global cross-shard spend order.
struct GlobalUnit {
  uint32_t shard = 0;
  uint32_t unit = 0;  // index into that shard's plan.units
  uint64_t cost = 0;
};

/// The global spend-priority order over every shard's units: concatenate
/// shard-major (shard ascending, unit order within), then one
/// seed-deterministic shuffle — the same Shuffle a single synopsis
/// performs over its own unit indices, so the permutation depends only on
/// the unit count and the seed.
std::vector<GlobalUnit> GlobalOrder(const std::vector<WorkPlan>& plans,
                                    uint64_t seed) {
  size_t total = 0;
  for (const WorkPlan& plan : plans) total += plan.units.size();
  std::vector<GlobalUnit> order;
  order.reserve(total);
  for (size_t s = 0; s < plans.size(); ++s) {
    for (size_t u = 0; u < plans[s].units.size(); ++u) {
      GlobalUnit g;
      g.shard = static_cast<uint32_t>(s);
      g.unit = static_cast<uint32_t>(u);
      g.cost = plans[s].units[u].cost;
      order.push_back(g);
    }
  }
  Rng rng(seed);
  rng.Shuffle(&order);
  return order;
}

/// Hands each shard its slice of the global order via WorkPlan::priority.
/// A restriction of the global prefix order is itself a prefix order, so
/// a shard-local prefix walk at the shard's exact admitted cost admits
/// exactly the globally chosen units.
void AttachPriorities(const std::vector<GlobalUnit>& order,
                      std::vector<WorkPlan>* plans) {
  for (WorkPlan& plan : *plans) {
    plan.priority.clear();
    plan.priority.reserve(plan.units.size());
  }
  for (const GlobalUnit& g : order) {
    (*plans)[g.shard].priority.push_back(g.unit);
  }
}

/// Prefix-admission along the global order: whole nonzero units are
/// admitted while they fit `budget`, and the walk stops at the first that
/// does not (zero-cost units are free and always admitted — they add
/// nothing to any allocation). Mirrors the prefix-stop rule of each
/// synopsis's own budget walk, which is what makes the per-shard
/// allocations componentwise monotone in `budget` and their sum never
/// exceed it.
std::vector<uint64_t> PrefixAdmit(const std::vector<GlobalUnit>& order,
                                  size_t num_shards, uint64_t budget) {
  std::vector<uint64_t> alloc(num_shards, 0);
  uint64_t used = 0;
  for (const GlobalUnit& g : order) {
    if (g.cost == 0) continue;
    if (used + g.cost > budget) break;
    used += g.cost;
    alloc[g.shard] += g.cost;
  }
  return alloc;
}

}  // namespace

uint64_t ShardedSynopsis::PlanScanCost(const Rect& predicate) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->PlanScanCost(predicate);
  return total;
}

std::vector<uint64_t> ShardedSynopsis::SplitBudget(const Rect& predicate,
                                                   uint64_t budget,
                                                   uint64_t seed) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  std::vector<WorkPlan> plans;
  plans.reserve(shards_.size());
  for (const auto& shard : shards_) {
    plans.push_back(shard->PlanFor(predicate));
  }
  return PrefixAdmit(GlobalOrder(plans, seed), shards_.size(), budget);
}

ShardedSynopsis::BudgetedFanOut ShardedSynopsis::PrepareBudgetedFanOut(
    const Rect& predicate, const AnswerOptions& options) const {
  const size_t k = shards_.size();
  BudgetedFanOut out;
  out.plans.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    // The one walk per shard: priced here, executed by the shard later.
    out.plans.push_back(shards_[i]->PlanFor(predicate));
  }
  out.options.resize(k);
  if (options.budget.max_scan_units.has_value()) {
    // Global interleaved admission: decide which units the whole budget
    // buys across all shards, then hand each shard its exact admitted
    // cost plus its slice of the global order, so the fan-out scans
    // precisely the globally chosen set.
    const std::vector<GlobalUnit> order = GlobalOrder(out.plans, options.seed);
    AttachPriorities(order, &out.plans);
    const std::vector<uint64_t> alloc =
        PrefixAdmit(order, k, *options.budget.max_scan_units);
    for (size_t i = 0; i < k; ++i) {
      out.options[i].budget.max_scan_units = alloc[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    out.options[i].budget.soft_deadline = options.budget.soft_deadline;
    // Decorrelated, shard-stable streams (the builder's seed convention);
    // admission ignores these whenever an explicit priority is attached.
    out.options[i].seed = options.seed + i * 7919;
  }
  return out;
}

QueryAnswer ShardedSynopsis::AnswerImpl(const Query& query,
                                        const AnswerOptions& options) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  // One shard needs no merging: delegate, keeping the answer bit-identical
  // to the plain synopsis (including the AVG estimator path).
  if (shards_.size() == 1) return shards_[0]->Answer(query, options);
  if (query.agg == AggregateType::kAvg) {
    // One fused evaluation per shard (one MCF walk + one leaf scan each)
    // carrying the exact SUM/COUNT covariance into the ratio merge.
    return AnswerMulti(query.predicate, options).avg;
  }

  const size_t k = shards_.size();
  std::vector<QueryAnswer> parts(k);
  if (options.budget.Unlimited()) {
    // The unlimited path answers in full with no split overhead (none of
    // the budgeted plan handoff below).
    for (size_t i = 0; i < k; ++i) parts[i] = shards_[i]->Answer(query);
  } else {
    BudgetedFanOut fan = PrepareBudgetedFanOut(query.predicate, options);
    for (size_t i = 0; i < k; ++i) {
      parts[i] = shards_[i]->AnswerOverPlan(std::move(fan.plans[i]), query,
                                            fan.options[i]);
    }
  }
  return MergeShardAnswers(query.agg, parts);
}

MultiAnswer ShardedSynopsis::AnswerMultiImpl(
    const Rect& predicate, const AnswerOptions& options) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  if (shards_.size() == 1) return shards_[0]->AnswerMulti(predicate, options);

  const size_t k = shards_.size();
  std::vector<MultiAnswer> parts(k);
  if (options.budget.Unlimited()) {
    for (size_t i = 0; i < k; ++i) {
      parts[i] = shards_[i]->AnswerMulti(predicate);
    }
  } else {
    BudgetedFanOut fan = PrepareBudgetedFanOut(predicate, options);
    for (size_t i = 0; i < k; ++i) {
      parts[i] = shards_[i]->AnswerMultiOverPlan(std::move(fan.plans[i]),
                                                 predicate, fan.options[i]);
    }
  }
  return MergeShardMulti(parts);
}

namespace {

/// Resumable estimation across shards: a checkpoint into the global
/// interleaved order, advancing one member session per shard to the exact
/// allocation the global prefix walk grants it. Because the members scan
/// precisely the units a fresh budgeted fan-out would admit at the same
/// cumulative budget and seed, the merged answer is bit-identical to that
/// fresh run at every AdvanceTo.
class ShardedSession final : public EstimationSession {
 public:
  ShardedSession(std::vector<std::unique_ptr<EstimationSession>> members,
                 std::vector<GlobalUnit> order, uint64_t plan_cost)
      : members_(std::move(members)),
        order_(std::move(order)),
        plan_cost_(plan_cost),
        alloc_(members_.size(), 0) {}

  MultiAnswer AdvanceTo(uint64_t max_scan_units) override {
    while (cursor_ < order_.size()) {
      const GlobalUnit& g = order_[cursor_];
      if (g.cost > 0) {
        if (used_ + g.cost > max_scan_units) break;
        used_ += g.cost;
        alloc_[g.shard] += g.cost;
      }
      ++cursor_;
    }
    std::vector<MultiAnswer> parts(members_.size());
    for (size_t i = 0; i < members_.size(); ++i) {
      parts[i] = members_[i]->AdvanceTo(alloc_[i]);
    }
    return MergeShardMulti(parts);
  }

  uint64_t PlanCost() const override { return plan_cost_; }
  uint64_t UnitsScanned() const override { return used_; }

 private:
  std::vector<std::unique_ptr<EstimationSession>> members_;
  std::vector<GlobalUnit> order_;  // the global spend-priority order
  const uint64_t plan_cost_;
  std::vector<uint64_t> alloc_;  // per-shard admitted cost so far
  size_t cursor_ = 0;            // next candidate in order_
  uint64_t used_ = 0;            // units admitted so far
};

}  // namespace

std::unique_ptr<EstimationSession> ShardedSynopsis::StartSessionImpl(
    const Rect& predicate, uint64_t seed) const {
  PASS_CHECK_MSG(!shards_.empty(), "sharded synopsis has no shards");
  if (shards_.size() == 1) return shards_[0]->StartSession(predicate, seed);

  const size_t k = shards_.size();
  std::vector<WorkPlan> plans;
  plans.reserve(k);
  uint64_t plan_cost = 0;
  for (const auto& shard : shards_) {
    plans.push_back(shard->PlanFor(predicate));
    plan_cost += plans.back().total_cost;
  }
  std::vector<GlobalUnit> order = GlobalOrder(plans, seed);
  AttachPriorities(order, &plans);
  std::vector<std::unique_ptr<EstimationSession>> members;
  members.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    members.push_back(shards_[i]->StartSessionOverPlan(std::move(plans[i]),
                                                       predicate,
                                                       seed + i * 7919));
  }
  return std::make_unique<ShardedSession>(std::move(members),
                                          std::move(order), plan_cost);
}

SystemCosts ShardedSynopsis::Costs() const {
  SystemCosts total;
  for (const auto& shard : shards_) {
    const SystemCosts c = shard->Costs();
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
