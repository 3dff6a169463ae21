#include "shard/shard_planner.h"

#include <cstring>

namespace pass {
namespace {

/// Mixed into the kHash placement so resharding is reproducible.
constexpr uint64_t kHashSeed = 0x9E3779B97F4A7C15ull;

/// SplitMix64 finalizer over the value's bit pattern: a stable, well-mixed
/// content hash for double keys (normalizes -0.0 to 0.0 so equal values
/// always land on the same shard).
uint64_t HashDouble(double value) {
  if (value == 0.0) value = 0.0;
  uint64_t x = 0;
  std::memcpy(&x, &value, sizeof(x));
  x += kHashSeed + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Result<ShardPlan> ShardPlanner::Plan(const Dataset& data) const {
  if (options_.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if ((options_.strategy == ShardStrategy::kRangeOnDim ||
       options_.strategy == ShardStrategy::kHash) &&
      options_.dim >= data.NumPredDims()) {
    return Status::InvalidArgument("shard dim is out of range");
  }
  const size_t k = options_.num_shards;
  const size_t n = data.NumRows();
  ShardPlan plan(k);
  for (auto& shard : plan) shard.reserve(n / k + 1);

  switch (options_.strategy) {
    case ShardStrategy::kRoundRobin:
      for (size_t row = 0; row < n; ++row) {
        plan[row % k].push_back(static_cast<uint32_t>(row));
      }
      break;
    case ShardStrategy::kRangeOnDim: {
      // Near-equal contiguous runs of the sorted order; the first n % k
      // shards absorb the remainder row each.
      const std::vector<uint32_t> perm =
          data.SortedPermutation(options_.dim);
      size_t next = 0;
      for (size_t s = 0; s < k; ++s) {
        const size_t take = n / k + (s < n % k ? 1 : 0);
        for (size_t i = 0; i < take; ++i) plan[s].push_back(perm[next++]);
      }
      break;
    }
    case ShardStrategy::kHash:
      for (size_t row = 0; row < n; ++row) {
        const uint64_t h = HashDouble(data.pred(options_.dim, row));
        plan[h % k].push_back(static_cast<uint32_t>(row));
      }
      break;
  }
  return plan;
}

Result<std::vector<Dataset>> ShardPlanner::Split(const Dataset& data) const {
  Result<ShardPlan> plan = Plan(data);
  if (!plan.ok()) return plan.status();
  std::vector<Dataset> shards;
  shards.reserve(plan->size());
  for (const std::vector<uint32_t>& rows : *plan) {
    shards.push_back(data.Subset(rows));
  }
  return shards;
}

}  // namespace pass
