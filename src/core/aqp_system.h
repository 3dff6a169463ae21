#ifndef PASS_CORE_AQP_SYSTEM_H_
#define PASS_CORE_AQP_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/answer.h"
#include "core/estimation_session.h"
#include "core/query.h"
#include "core/work_budget.h"
#include "jit/kernel_cache.h"

namespace pass {

class SemanticAnswerCache;

/// Build-time / space costs of a synopsis, reported alongside accuracy in
/// the paper's Table 1 and Table 2.
struct SystemCosts {
  double build_seconds = 0.0;
  uint64_t storage_bytes = 0;  // synopsis payload (samples + aggregates)
  /// Bytes actually allocated for the synopsis (vector capacities — the
  /// real in-memory footprint after Reserve). Always >= storage_bytes;
  /// the gap is reservation slack the payload accounting must not hide.
  uint64_t resident_bytes = 0;
};

/// The zero-match answer every system returns for a provably-empty
/// predicate (Rect::Degenerate — inverted or NaN bounds, zero dims): no
/// row can match, so SUM and COUNT are exactly 0 with [0, 0] hard bounds,
/// while AVG/MIN/MAX are undefined over the empty set and report 0 with no
/// bounds. Diagnostics are all zero — the index was never consulted.
inline QueryAnswer EmptyPredicateAnswer(AggregateType agg) {
  QueryAnswer out;
  out.exact = true;
  if (agg == AggregateType::kSum || agg == AggregateType::kCount) {
    out.hard_lb = 0.0;
    out.hard_ub = 0.0;
  }
  return out;
}

inline MultiAnswer EmptyPredicateMultiAnswer() {
  MultiAnswer out;
  out.fused = true;
  out.sum = EmptyPredicateAnswer(AggregateType::kSum);
  out.count = EmptyPredicateAnswer(AggregateType::kCount);
  out.avg = EmptyPredicateAnswer(AggregateType::kAvg);
  return out;
}

/// Common interface every AQP approach in this repository implements (PASS
/// and all baselines), so the experiment harness can evaluate them
/// uniformly.
///
/// The query surface is one canonical entry point per shape, non-virtual,
/// dispatching to a protected *Impl hook (the non-virtual-interface
/// pattern). Default-constructed AnswerOptions are the identity — an
/// unlimited budget answers in full, bit-identical to the pre-options code
/// paths — so `Answer(query)` remains the plain synchronous call. The NVI
/// split exists because the old design (a pure-virtual one-argument
/// Answer plus a virtual budgeted overload) made every subclass re-export
/// the hidden overloads with `using AqpSystem::Answer;`; forgetting that
/// line silently compiled and dropped budgets on the floor.
class AqpSystem {
 public:
  virtual ~AqpSystem() = default;

  /// Answers one aggregate query, spending at most `options.budget` and
  /// falling back to deterministic bounds for work left undone, so any
  /// budget — down to zero — yields a valid (wider) answer with
  /// `truncated` set. Systems without a resumable scan ignore the budget
  /// and answer in full (they cannot truncate); those that ration work
  /// advertise it via SupportsBudget().
  ///
  /// Provably-empty predicates (Rect::Degenerate: inverted intervals, NaN
  /// bounds, zero dims) short-circuit to the deterministic zero-match
  /// answer here in the non-virtual entry — they used to flow into the
  /// index walks unvalidated, where a NaN bound defeats every interval
  /// comparison.
  QueryAnswer Answer(const Query& query,
                     const AnswerOptions& options = {}) const {
    if (query.predicate.Degenerate()) return EmptyPredicateAnswer(query.agg);
    return AnswerImpl(query, options);
  }

  /// Answers SUM, COUNT and AVG over one predicate in a single call, with
  /// the same budget contract as Answer. The default implementation
  /// issues three per-aggregate calls and reports no cross-aggregate
  /// covariance (fused == false); systems that can produce all three from
  /// one evaluation override AnswerMultiImpl. Fused implementations
  /// always report AVG as the SUM/COUNT ratio estimator (the form a
  /// covariance applies to), independent of any per-aggregate AVG mode
  /// the system's Answer path may be configured with.
  MultiAnswer AnswerMulti(const Rect& predicate,
                          const AnswerOptions& options = {}) const {
    if (predicate.Degenerate()) return EmptyPredicateMultiAnswer();
    return AnswerMultiImpl(predicate, options);
  }

  /// Opens a resumable fused estimation over `predicate` (see
  /// core/estimation_session.h for the refinement contract), or nullptr
  /// when this system has no resumable scan. `seed` fixes the spend-
  /// priority order exactly like AnswerOptions::seed does, so
  /// session->AdvanceTo(b) is bit-identical to
  /// AnswerMulti(predicate, {.budget = {b}, .seed = seed}). The system
  /// must outlive the session.
  std::unique_ptr<EstimationSession> StartSession(const Rect& predicate,
                                                  uint64_t seed = 0) const {
    // A degenerate predicate has no resumable scan to refine; callers fall
    // back to Answer(), whose zero-match short-circuit handles it.
    if (predicate.Degenerate()) return nullptr;
    return StartSessionImpl(predicate, seed);
  }

  /// True when this system implements the anytime contract (the budget in
  /// AnswerOptions actually rations work, and StartSession resumes it).
  /// The scheduler uses it to decide between truncating an overdue query
  /// and shedding it outright.
  virtual bool SupportsBudget() const { return false; }

  /// The semantic answer cache serving this system, or nullptr when
  /// answers are computed from scratch every time. Its Stats() are the
  /// one cache counter surface; only the CachedSystem decorator overrides
  /// this.
  virtual const SemanticAnswerCache* AnswerCache() const { return nullptr; }

  /// The kernel tier counters this system's scans record into
  /// (jit/kernel_cache.h), or nullptr when its scans go uncounted. Lets
  /// callers assert which ScanColumns instantiation served their scans.
  virtual const KernelCache* ScanKernelCache() const { return nullptr; }

  virtual std::string Name() const = 0;
  virtual SystemCosts Costs() const = 0;

 protected:
  virtual QueryAnswer AnswerImpl(const Query& query,
                                 const AnswerOptions& options) const = 0;

  virtual MultiAnswer AnswerMultiImpl(const Rect& predicate,
                                      const AnswerOptions& options) const {
    MultiAnswer out;
    Query q;
    q.predicate = predicate;
    q.agg = AggregateType::kSum;
    out.sum = AnswerImpl(q, options);
    q.agg = AggregateType::kCount;
    out.count = AnswerImpl(q, options);
    q.agg = AggregateType::kAvg;
    out.avg = AnswerImpl(q, options);
    return out;
  }

  virtual std::unique_ptr<EstimationSession> StartSessionImpl(
      const Rect& predicate, uint64_t seed) const {
    (void)predicate;
    (void)seed;
    return nullptr;
  }
};

}  // namespace pass

#endif  // PASS_CORE_AQP_SYSTEM_H_
