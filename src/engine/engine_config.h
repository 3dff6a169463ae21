#ifndef PASS_ENGINE_ENGINE_CONFIG_H_
#define PASS_ENGINE_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache_config.h"
#include "common/status.h"
#include "core/estimator.h"
#include "core/query.h"
#include "partition/build_options.h"
#include "shard/shard_options.h"

namespace pass {

/// One configuration shared by every engine the registry can construct, so
/// a serving layer can switch methods without per-method plumbing. Each
/// engine reads the subset of fields it understands and ignores the rest.
struct EngineConfig {
  /// Overall sampling budget as a fraction of the dataset (US, ST,
  /// AQP++, PASS). The paper's experiments default to 0.5%.
  double sample_rate = 0.005;

  /// Number of leaf partitions / strata (ST, AQP++, PASS).
  size_t partitions = 64;

  /// Predicate dimension used by the 1-D methods (ST stratification and
  /// the AQP++ hill climb).
  size_t dim = 0;

  /// Optimization-sample size for the partitioning optimizers.
  size_t opt_sample_size = 10'000;

  /// Aggregate whose worst-case variance the PASS optimizer minimizes.
  AggregateType optimize_for = AggregateType::kSum;

  /// Partitioning strategy for the PASS synopsis.
  PartitionStrategy strategy = PartitionStrategy::kAdp;

  /// Number of data shards for the "sharded_pass" engine; partitions and
  /// the sampling budget are split fair-total across them. 1 = unsharded.
  size_t num_shards = 1;

  /// How rows are assigned to shards (see shard/shard_planner.h).
  ShardStrategy shard_strategy = ShardStrategy::kRoundRobin;

  /// Predicate column the range/hash shard strategies key on.
  size_t shard_dim = 0;

  /// Query templates for the "ensemble" engine: one PASS member is built
  /// per template over exactly these partition dims, with a fair-total
  /// budget split. Empty = one 1-D member per predicate column.
  std::vector<std::vector<size_t>> ensemble_templates;

  /// Estimator configuration shared by the sampling-based engines.
  EstimatorOptions estimator;

  /// Semantic answer cache the registry wraps the engine in when enabled
  /// (see cache/semantic_answer_cache.h). Off by default; cached answers
  /// are bit-identical to uncached ones, so this is purely a latency
  /// knob.
  CacheConfig cache;

  uint64_t seed = 42;

  /// Validates the fields every engine depends on. Factories run this
  /// before construction so misconfiguration surfaces as a Status, not a
  /// crash deep inside a builder.
  Status Validate() const {
    if (!(sample_rate > 0.0) || sample_rate > 1.0) {
      return Status::InvalidArgument("sample_rate must be in (0, 1]");
    }
    if (partitions == 0) {
      return Status::InvalidArgument("partitions must be >= 1");
    }
    if (opt_sample_size == 0) {
      return Status::InvalidArgument("opt_sample_size must be >= 1");
    }
    if (num_shards == 0) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    for (const auto& dims : ensemble_templates) {
      if (dims.empty()) {
        return Status::InvalidArgument(
            "ensemble templates must name at least one dim");
      }
    }
    if (cache.enabled && cache.max_exact_entries == 0) {
      return Status::InvalidArgument(
          "an enabled cache needs max_exact_entries >= 1");
    }
    return Status::Ok();
  }
};

}  // namespace pass

#endif  // PASS_ENGINE_ENGINE_CONFIG_H_
