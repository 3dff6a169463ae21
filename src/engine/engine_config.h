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

/// How a serving deadline is converted into a WorkBudget at dispatch. The
/// scheduler maintains an EWMA of the observed per-scan-unit cost (run
/// milliseconds per sample row scanned, fed by every budget-capable query
/// it completes) and grants an over-deadline-prone query
///   floor(remaining_ms * safety_factor / ewma_unit_cost_ms)
/// scan units, with the deadline itself attached as the soft cutoff.
/// Shared by SchedulerOptions and anything else pricing deadlines.
///
/// This struct itself is immutable configuration (copied into the
/// scheduler at construction). The *learned* EWMA state it parameterizes
/// — QueryScheduler::unit_cost_ms_ / overhead_ms_ — is cross-thread
/// shared and GUARDED_BY(calibration_mu_); all reads go through the
/// locked Calibrated*Ms() accessors, never a raw member load.
struct BudgetCalibration {
  /// Weight of the newest observation in the EWMA. 0 disables learning
  /// (the initial guess is used forever).
  double ewma_alpha = 0.2;

  /// Per-scan-unit cost assumed before the first observation, in ms. The
  /// default (~50ns/row) matches a scalar predicate-match loop on current
  /// hardware; it only has to be in the right ballpark — the EWMA takes
  /// over from the first completed query.
  double initial_unit_cost_ms = 5e-5;

  /// Fraction of the remaining time the unit budget may plan to spend;
  /// the rest absorbs walk/merge overhead and estimation noise. The soft
  /// deadline backstops whatever this underestimates.
  double safety_factor = 0.5;

  /// Fixed per-query overhead assumed before the first observation, in ms
  /// (MCF walk + split + merge — everything a zero-budget answer still
  /// pays). Learned as an EWMA of max(run_ms - units * unit_cost, 0) from
  /// every completed budget-capable query. The admission controller's
  /// kRejectInfeasible policy sheds a query only when the remaining time
  /// at admission cannot even cover this floor — i.e. when the zero-budget
  /// bounds-midpoint answer would itself miss the deadline.
  double initial_overhead_ms = 0.05;
};

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

  /// Fraction of rows the SPN baseline trains on (DeepDB-10% uses 0.1).
  double spn_train_fraction = 1.0;

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
    if (!(spn_train_fraction > 0.0) || spn_train_fraction > 1.0) {
      return Status::InvalidArgument("spn_train_fraction must be in (0, 1]");
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
