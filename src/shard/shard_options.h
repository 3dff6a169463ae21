#ifndef PASS_SHARD_SHARD_OPTIONS_H_
#define PASS_SHARD_SHARD_OPTIONS_H_

#include <cstddef>

namespace pass {

/// Leaf header: sharding strategy/options only, no other includes, so
/// EngineConfig can name a ShardStrategy without pulling the planner (and
/// its Dataset dependency) into every engine translation unit.

/// How ShardPlanner assigns rows to shards.
enum class ShardStrategy {
  /// Row i goes to shard i % K. Keeps every shard statistically identical
  /// to the whole dataset (and keeps the original row order at K=1).
  kRoundRobin,
  /// Contiguous runs of the rows sorted on one predicate column: shard
  /// boundaries align with range predicates, so range queries skip whole
  /// shards' worth of partitions.
  kRangeOnDim,
  /// Hash of the partitioning column's value bits: content-addressed
  /// placement that stays stable under row reordering, the scheme a
  /// distributed deployment would use.
  kHash,
};

inline const char* ShardStrategyName(ShardStrategy s) {
  switch (s) {
    case ShardStrategy::kRoundRobin:
      return "round-robin";
    case ShardStrategy::kRangeOnDim:
      return "range";
    case ShardStrategy::kHash:
      return "hash";
  }
  return "?";
}

struct ShardOptions {
  size_t num_shards = 4;
  ShardStrategy strategy = ShardStrategy::kRoundRobin;
  /// Predicate column kRangeOnDim splits on / kHash hashes.
  size_t dim = 0;
};

}  // namespace pass

#endif  // PASS_SHARD_SHARD_OPTIONS_H_
