#ifndef PASS_ENGINE_QUERY_SCHEDULER_H_
#define PASS_ENGINE_QUERY_SCHEDULER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/answer.h"
#include "core/aqp_system.h"
#include "core/query.h"
#include "engine/engine_config.h"
#include "engine/thread_pool.h"

namespace pass {

/// What the scheduler resolves a submission with. `answer` is meaningful
/// iff `status.ok()`; otherwise the query was never run (it expired in the
/// queue on a non-anytime system, or was rejected at shutdown) and the
/// timing fields describe only the time it spent waiting.
struct ScheduledAnswer {
  Status status;       // Ok | kDeadlineExceeded | kUnavailable
  QueryAnswer answer;  // valid iff status.ok()

  /// Anytime accounting, meaningful only for deadline submissions to
  /// budget-capable systems (zero otherwise): the scan-unit budget the
  /// scheduler granted at dispatch (0 for a query that expired in the
  /// queue and was answered from bounds alone), the units the estimator
  /// actually consumed, and whether the budget left planned work
  /// unexecuted (the answer is then valid but wider than the full one).
  uint64_t budget_total = 0;
  uint64_t budget_used = 0;
  bool truncated = false;

  /// Scan throughput this run achieved: sample rows scanned per second of
  /// run_ms (0 when the run scanned nothing — covered/zero-budget answers
  /// — or for non-budget-capable systems that report no scan work). The
  /// human-readable twin of the deadline-pricing EWMA's (run_ms, units)
  /// observation: per-unit cost in ms ≈ 1e3 / scan_rows_per_sec, so a
  /// drifting calibration is visible directly in submission results.
  double scan_rows_per_sec = 0.0;

  /// Progressive (AnswerUntil) accounting. Intermediate answers streamed
  /// through the callback carry is_final = false; exactly one final answer
  /// (is_final = true) resolves the submission — it is the only one a
  /// future ever sees. `refinements` counts the AdvanceTo steps taken
  /// before this answer was produced (0 for non-progressive submissions
  /// and for the zero-budget first look).
  bool is_final = true;
  uint32_t refinements = 0;

  /// Monotonically increasing admission ticket. Every submission gets a
  /// unique ticket under the admission lock, so any scheduler-level
  /// randomization (none today) must derive its seed from the ticket —
  /// never from thread identity or completion order — to keep the async
  /// path bit-identical to the sequential one.
  uint64_t ticket = 0;

  double queue_ms = 0.0;  // admission -> a worker picked the task up
  double run_ms = 0.0;    // the AqpSystem::Answer call alone
  double total_ms = 0.0;  // admission -> resolution (queue + run)
};

/// When a progressive (AnswerUntil) submission may stop refining. The
/// scheduler iterates plan -> scan-delta -> check: it opens one
/// EstimationSession, advances it through a doubling ladder of cumulative
/// scan-unit budgets, and stops at the first answer whose confidence
/// interval is tight enough — or when the plan is exhausted or the
/// deadline expires, whichever comes first. Because each step resumes the
/// same session, reaching a given budget level costs exactly that many
/// scan units in total, never the sum of the ladder (the refine-vs-restart
/// sweep in bench_micro measures this).
struct StoppingCondition {
  /// Stop once the CI half-width at `confidence` is <= this. 0 = never
  /// satisfied by width — refine until the plan is exhausted or the
  /// deadline hits (a "best answer by the deadline" submission).
  double target_ci_width = 0.0;

  /// Confidence level of the interval checked against target_ci_width.
  double confidence = 0.99;

  /// Minimum scan units per refinement step. 0 = auto: max(64, plan/16),
  /// so a step is never too small to amortize the reassembly overhead.
  uint64_t min_step_units = 0;
};

/// What the scheduler does with a deadline submission it cannot serve in
/// time (see SubmitOptions::admission).
enum class AdmissionPolicy {
  /// Never shed a budget-capable query: even an expired-in-queue one runs
  /// with a zero budget and answers from hard bounds alone. The default,
  /// and the only behavior before admission control existed.
  kAlwaysAnswer,
  /// Shed with kDeadlineExceeded when even the zero-budget answer would
  /// miss the deadline — i.e. when the remaining time cannot cover the
  /// calibrated fixed per-query overhead (walk + merge; see
  /// BudgetCalibration::initial_overhead_ms). Checked at admission and
  /// again at dispatch. Queries whose deadline affords at least the
  /// overhead are never shed, no matter how small the granted budget.
  kRejectInfeasible,
};

/// Per-submission knobs. The struct is the extension point: new serving
/// modes add defaulted fields here (stopping conditions, admission
/// policies) instead of new Submit overloads, so existing two-field
/// aggregate initializers keep compiling unchanged.
struct SubmitOptions {
  /// Relative deadline, measured on the monotonic clock from the moment
  /// Submit admits the query. The policy is *anytime-first*:
  ///
  ///  * Budget-capable systems (AqpSystem::SupportsBudget()) are never
  ///    shed. At dispatch the remaining time is converted into a
  ///    scan-unit WorkBudget (see BudgetCalibration); a query that
  ///    expired while queued runs with a zero budget and returns the pure
  ///    bounds-midpoint answer. Either way the caller gets a valid — if
  ///    wider — answer, with `truncated`/`budget_*` reporting what was
  ///    sacrificed. Deadline answers are therefore load-dependent; only
  ///    deadline-free submissions carry the bit-identical-to-sync
  ///    guarantee.
  ///
  ///  * Systems without an anytime path keep the PR-3 admission-to-
  ///    dispatch policy: expired-in-queue work is shed unrun with
  ///    kDeadlineExceeded, and a query dispatched in time always runs to
  ///    completion (never truncated mid-scan).
  ///
  /// nullopt = no deadline; the query runs unbudgeted on every system and
  /// the delivered answer is bit-identical to the synchronous path.
  std::optional<std::chrono::milliseconds> deadline;

  /// Progressive mode: refine a resumable estimation until the condition
  /// holds (or the plan is exhausted / the deadline expires). Requires a
  /// budget-capable system and a fused aggregate (SUM/COUNT/AVG); other
  /// submissions answer once, in full, exactly as without `until`. With a
  /// callback submission every intermediate answer streams through the
  /// callback (is_final = false) before the final one; a future receives
  /// only the final answer. AnswerUntil() is sugar for setting this.
  std::optional<StoppingCondition> until;

  /// What to do when the deadline is infeasible even for a zero-budget
  /// answer. Only consulted for deadline submissions to budget-capable
  /// systems; systems without an anytime path always shed expired work
  /// (they cannot truncate).
  AdmissionPolicy admission = AdmissionPolicy::kAlwaysAnswer;
};

/// Construction-time capacity knobs.
struct SchedulerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency.
  size_t num_threads = 0;
  /// Bounded in-flight queue: when this many submissions are admitted but
  /// unresolved, Submit blocks (backpressure on the producer) until a slot
  /// frees or the scheduler shuts down. 0 = unbounded — what the
  /// BatchExecutor wrapper uses, since a closed batch is its own bound.
  size_t max_in_flight = 0;

  /// Deadline-to-WorkBudget conversion parameters (anytime serving).
  BudgetCalibration calibration;
};

/// The asynchronous serving core: one pool multiplexing many clients.
/// `Submit` hands a query to the pool and immediately returns a
/// std::future (or invokes a completion callback from the worker thread),
/// so a server front-end can keep thousands of requests in flight with
/// per-request deadlines. Deadline-free answers stay bit-identical to the
/// sequential path — every AqpSystem::Answer in this repository is const
/// and deterministic, the work units are index-free (each resolves its own
/// promise), and per-query seeds are derived at build time, never from
/// scheduling order. Deadline submissions to budget-capable systems get
/// *anytime* answers instead: the remaining time is converted into a
/// WorkBudget at dispatch (see SubmitOptions::deadline), trading CI width
/// for latency rather than shedding the query.
///
/// Sharded engines answer every shard member on the worker that runs the
/// query, so a worker never waits on another pool and scheduler
/// concurrency is the only concurrency inside a sharded answer.
///
/// Lifetime: the AqpSystem reference passed to Submit must stay alive
/// until that submission resolves (Drain()/Shutdown() are the fences
/// callers use before tearing an engine down).
class QueryScheduler {
 public:
  using Callback = std::function<void(ScheduledAnswer)>;

  explicit QueryScheduler(const SchedulerOptions& options = {});
  /// Convenience: a scheduler with `num_threads` workers, unbounded queue.
  explicit QueryScheduler(size_t num_threads);
  ~QueryScheduler();  // Shutdown()

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Process-wide scheduler for the given pool size, created on first use
  /// and kept for the process lifetime (mirrors BatchExecutor::Shared).
  /// Thread-safe.
  static QueryScheduler& Shared(size_t num_threads = 0);

  size_t num_threads() const { return pool_.num_threads(); }
  size_t max_in_flight() const { return max_in_flight_; }

  /// Current EWMA of the per-scan-unit cost (ms per sample row) used to
  /// price deadlines. Starts at the calibration's initial guess and learns
  /// from every completed budget-capable query. Thread-safe.
  double CalibratedUnitCostMs() const EXCLUDES(calibration_mu_);

  /// Current EWMA of the fixed per-query overhead (ms a zero-budget
  /// answer still pays: walk + split + merge). The admission controller's
  /// kRejectInfeasible floor. Thread-safe.
  double CalibratedOverheadMs() const EXCLUDES(calibration_mu_);

  /// Admitted-but-unresolved submissions right now (queued + running).
  size_t InFlight() const EXCLUDES(mu_);

  /// Submits one query for asynchronous answering. Blocks only for
  /// backpressure (bounded queue at capacity); otherwise returns
  /// immediately. After Shutdown() the returned future is already
  /// resolved with kUnavailable.
  std::future<ScheduledAnswer> Submit(const AqpSystem& system, Query query,
                                      const SubmitOptions& options = {});

  /// Completion-callback overload: `done` runs on the worker thread that
  /// resolved the submission (including rejection at shutdown, where it
  /// runs on the submitting thread). The callback must not throw and must
  /// not block on this scheduler's own pool. A progressive submission
  /// (options.until) invokes `done` once per intermediate answer
  /// (is_final = false) and once for the final one.
  void Submit(const AqpSystem& system, Query query,
              const SubmitOptions& options, Callback done);

  /// Progressive answering: refine until the stopping condition holds (or
  /// the deadline in `options` expires, or the plan is exhausted). Sugar
  /// for Submit with options.until = condition; see
  /// SubmitOptions::until for the contract. The future resolves with the
  /// final answer only.
  std::future<ScheduledAnswer> AnswerUntil(const AqpSystem& system,
                                           Query query,
                                           const StoppingCondition& condition,
                                           const SubmitOptions& options = {});

  /// Streaming overload: every intermediate answer reaches `done` with
  /// is_final = false, then the final one with is_final = true.
  void AnswerUntil(const AqpSystem& system, Query query,
                   const StoppingCondition& condition,
                   const SubmitOptions& options, Callback done);

  /// Blocks until every admitted submission has resolved. New submissions
  /// are still accepted during and after a drain; with concurrent
  /// producers this is a quiescence point, not an admission barrier.
  void Drain() EXCLUDES(mu_);

  /// Graceful shutdown: stops admission (subsequent Submits resolve with
  /// kUnavailable), unblocks producers waiting on backpressure, runs every
  /// already-admitted query to completion, and returns once the queue is
  /// empty. Idempotent; the destructor calls it.
  void Shutdown() EXCLUDES(mu_);

 private:
  struct Task;

  std::future<ScheduledAnswer> SubmitInternal(const AqpSystem& system,
                                              Query query,
                                              const SubmitOptions& options,
                                              Callback done, bool want_future)
      EXCLUDES(mu_);
  void RunTask(Task* task) EXCLUDES(mu_);
  /// The progressive (options.until) path of RunTask: session-resumed
  /// refinement over a doubling budget ladder. Fills everything in
  /// `result` except total_ms.
  void RunProgressive(Task* task, ScheduledAnswer* result);
  void ObserveUnitCost(double run_ms, uint64_t units)
      EXCLUDES(calibration_mu_);

  mutable Mutex mu_;
  CondVar slot_free_;  // backpressure + drain wakeups
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  uint64_t next_ticket_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  const size_t max_in_flight_;
  const BudgetCalibration calibration_;

  /// Deadline-pricing EWMAs, shared by every worker (their own lock so the
  /// hot admission path never contends with calibration updates).
  mutable Mutex calibration_mu_;
  double unit_cost_ms_ GUARDED_BY(calibration_mu_);
  double overhead_ms_ GUARDED_BY(calibration_mu_);

  mutable ThreadPool pool_;  // declared last: joins before state above dies
};

}  // namespace pass

#endif  // PASS_ENGINE_QUERY_SCHEDULER_H_
