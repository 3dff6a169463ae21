#ifndef PASS_CORE_WORK_BUDGET_H_
#define PASS_CORE_WORK_BUDGET_H_

#include <chrono>
#include <cstdint>
#include <optional>

namespace pass {

/// A point on the monotonic clock, the clock soft deadlines are set on.
using SteadyTime = std::chrono::steady_clock::time_point;

/// How much work an anytime answer may spend. The unit of account is one
/// *scan unit* = one sample row in a partially-overlapped leaf's stratified
/// sample — the only per-query data access a synopsis performs, and hence
/// the quantity a serving deadline has to ration. Precomputed-aggregate
/// work (the MCF walk, covered-node merging, hard bounds) is O(gamma log B)
/// bookkeeping and is never budgeted.
///
/// An unlimited budget (both fields empty, the default) is a contract, not
/// a hint: every estimator in this repository answers bit-identically to
/// the pre-budget code path when the budget is unlimited.
struct WorkBudget {
  /// Maximum scan units to spend. Units are admitted whole, walking the
  /// deterministic priority order and stopping at the first leaf whose
  /// sample no longer fits the remaining allowance (per-leaf estimators
  /// need the full stratum sample to stay unbiased, and the prefix-stop
  /// rule makes the admitted set monotone in the cap — the property a
  /// resumable EstimationSession replays from a checkpoint). Leaves left
  /// unscanned fall back to their deterministic bounds-midpoint
  /// contribution, so *every* value — including 0 — yields a valid, wider
  /// answer. Empty = no unit cap.
  std::optional<uint64_t> max_scan_units;

  /// Soft wall-clock cutoff on the monotonic clock: the one budget walk
  /// (behind Synopsis::PlanFor's plans) checks it between scan units,
  /// never mid-scan, and stops at the first unit it reaches after the
  /// cutoff. A deadline therefore cuts the tail of the spend order, so
  /// the scanned set is a prefix of that order, as under a unit cap.
  /// Unlike max_scan_units this makes the answer timing-dependent (hence
  /// "soft"); budgets that must be reproducible use max_scan_units alone.
  std::optional<SteadyTime> soft_deadline;

  bool Unlimited() const {
    return !max_scan_units.has_value() && !soft_deadline.has_value();
  }
};

/// Per-answer knobs threaded from the serving layer down through shards and
/// ensemble routing into the estimator. Default-constructed options are the
/// identity: all existing call sites behave bit-identically.
struct AnswerOptions {
  WorkBudget budget;

  /// Seed for the deterministic priority order in which a finite budget is
  /// spent across a query's scan units (so truncation does not
  /// systematically favor tree-order leaves). Two answers with the same
  /// budget and seed are bit-identical; the scheduler derives it from the
  /// admission ticket.
  uint64_t seed = 0;
};

}  // namespace pass

#endif  // PASS_CORE_WORK_BUDGET_H_
