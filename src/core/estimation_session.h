#ifndef PASS_CORE_ESTIMATION_SESSION_H_
#define PASS_CORE_ESTIMATION_SESSION_H_

#include <cstdint>
#include <optional>

#include "core/answer.h"
#include "core/work_budget.h"

namespace pass {

/// A resumable fused estimation in progress: one query's plan (the MCF
/// frontier and its costed scan units) pinned together with the set of
/// work units already scanned, so a follow-up request with a larger
/// budget pays only for the *delta* units instead of restarting.
///
/// The contract that makes progressive serving trustworthy:
///
///  * AdvanceTo(b) returns the same bits a fresh budgeted evaluation of
///    the same system would return for `max_scan_units = b` with the
///    session's seed. Refinement never changes an answer a client could
///    have obtained directly — it only delivers it cheaper. (Admission
///    spends units in a deterministic priority order and stops at the
///    first unit that does not fit, so the scanned set at any smaller
///    budget is a prefix of the scanned set at any larger one; a session
///    is just a checkpoint in that one order.)
///
///  * Budgets are cumulative, not incremental: AdvanceTo(2000) after
///    AdvanceTo(500) spends at most 1500 additional units. Scanned work
///    is never redone and never discarded; calling with a smaller budget
///    than already consumed reassembles the current answer.
///
///  * A soft deadline cuts a step short: the walk stops at the first unit
///    it reaches after the deadline, so the scanned set stays a prefix of
///    the spend order, and a later deadline-free AdvanceTo(b) still
///    returns the fresh budgeted answer at `b`. Only the cut step's own
///    answer depends on the clock.
///
/// Sessions are single-threaded and hold references into the system that
/// created them (the system must outlive the session).
class EstimationSession {
 public:
  virtual ~EstimationSession() = default;

  /// Extends the scanned set up to `max_scan_units` cumulative units, or
  /// to the first unit reached after `soft_deadline`, and returns the
  /// refreshed fused SUM/COUNT/AVG answer.
  virtual MultiAnswer AdvanceTo(
      uint64_t max_scan_units,
      std::optional<SteadyTime> soft_deadline = std::nullopt) = 0;

  /// Total cost of the query's sampled work in scan units — the budget at
  /// which the answer stops tightening (= WorkPlan::total_cost).
  virtual uint64_t PlanCost() const = 0;

  /// Units consumed so far across all AdvanceTo calls.
  virtual uint64_t UnitsScanned() const = 0;

  /// True once every planned unit has been scanned: further AdvanceTo
  /// calls reassemble the final (untruncated) answer without new work.
  bool Exhausted() const { return UnitsScanned() >= PlanCost(); }
};

}  // namespace pass

#endif  // PASS_CORE_ESTIMATION_SESSION_H_
