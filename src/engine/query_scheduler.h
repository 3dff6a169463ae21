#ifndef PASS_ENGINE_QUERY_SCHEDULER_H_
#define PASS_ENGINE_QUERY_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/answer.h"
#include "core/aqp_system.h"
#include "core/query.h"

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

/// Per-submission knobs. The struct is the extension point: new serving
/// modes add defaulted fields here instead of new Submit overloads.
struct SubmitOptions {
  /// Relative deadline, measured on the monotonic clock from the moment
  /// Submit admits the query. The policy is *anytime-first*:
  ///
  ///  * Budget-capable systems (AqpSystem::SupportsBudget()) are never
  ///    shed. At dispatch the remaining time is converted into a
  ///    scan-unit WorkBudget at the learned per-unit cost (see
  ///    CalibratedUnitCostMs); a query that expired while queued runs
  ///    with a zero budget and returns the pure bounds-midpoint answer. Either way the caller gets a valid — if
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
  /// submissions are answered exactly as without `until`, deadline
  /// included. With a callback submission every intermediate answer
  /// streams through the callback (is_final = false) before the final
  /// one; a future receives only the final answer. AnswerUntil() is sugar
  /// for setting this.
  std::optional<StoppingCondition> until;
};

/// Construction-time capacity knobs.
struct SchedulerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency.
  size_t num_threads = 0;
  /// Bounded in-flight queue: when this many submissions are admitted but
  /// unresolved, Submit blocks (backpressure on the producer) until a slot
  /// frees or the scheduler shuts down. 0 = unbounded — what a closed
  /// batch wants, since it is its own bound.
  size_t max_in_flight = 0;
};

/// The asynchronous serving core: one set of workers multiplexing many
/// clients. `Submit` queues a query and immediately returns a
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
/// The scheduler owns its workers: the constructor starts them, admission
/// and the task queue share one mutex (so nothing is queued once shutdown
/// has begun), and the destructor shuts down and joins them.
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
  ~QueryScheduler();  // Shutdown(), then joins the workers

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  size_t num_threads() const { return num_threads_; }
  size_t max_in_flight() const { return max_in_flight_; }

  /// Current EWMA of the per-scan-unit cost (ms per sample row) used to
  /// price deadlines. Starts at a fixed initial guess and learns from
  /// every completed budget-capable query, except the unbudgeted answers
  /// of a system with an answer cache: a cache hit reports the scan of
  /// the miss that stored it. Thread-safe.
  double CalibratedUnitCostMs() const EXCLUDES(calibration_mu_);

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
  /// not block on this scheduler's own workers. A progressive submission
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
  /// empty. Idempotent and safe to call concurrently; the destructor
  /// calls it.
  void Shutdown() EXCLUDES(mu_);

 private:
  struct Task;

  std::future<ScheduledAnswer> SubmitInternal(const AqpSystem& system,
                                              Query query,
                                              const SubmitOptions& options,
                                              Callback done, bool want_future)
      EXCLUDES(mu_);
  /// Pops and runs admitted tasks until shutdown leaves the queue empty.
  void WorkerLoop() EXCLUDES(mu_);
  /// Takes the next queued task, or returns nullptr once shutdown has left
  /// the queue empty. An idle worker may first spin (see spinning_).
  std::unique_ptr<Task> NextTask() EXCLUDES(mu_);
  /// Answers one dispatched task. Fills everything in `result` except
  /// total_ms.
  void RunTask(const Task& task, ScheduledAnswer* result);
  /// The progressive (options.until) path of RunTask: `session`-resumed
  /// refinement over a doubling budget ladder.
  void RunProgressive(const Task& task, EstimationSession* session,
                      std::chrono::steady_clock::time_point started,
                      ScheduledAnswer* result);
  void ObserveUnitCost(double run_ms, uint64_t units)
      EXCLUDES(calibration_mu_);

  mutable Mutex mu_;
  CondVar slot_free_;   // backpressure + drain wakeups
  CondVar task_ready_;  // worker wakeups: a task was queued, or shutdown
  std::deque<std::unique_ptr<Task>> queue_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;  // queued + running
  uint64_t next_ticket_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  const size_t num_threads_;
  const size_t max_in_flight_;

  /// The idle handoff. A worker that finds the queue empty polls
  /// `queued_`, an atomic mirror of queue_.size() written under mu_, for
  /// a bounded window before it parks on task_ready_. At most one worker
  /// spins (`spinning_`), so an idle scheduler busies one CPU at most, and
  /// each poll yields, so the spinner gives way to any thread queued on
  /// its CPU. A producer whose task is the only one queued skips the
  /// notify while a worker spins: the spinner clears `spinning_` before it
  /// re-checks the queue under mu_, so it finds the task.
  std::atomic<size_t> queued_{0};
  std::atomic<bool> spinning_{false};

  /// Deadline-pricing EWMA, shared by every worker (its own lock so the
  /// hot admission path never contends with calibration updates).
  mutable Mutex calibration_mu_;
  double unit_cost_ms_ GUARDED_BY(calibration_mu_);

  // Declared last: the workers start once the state above exists, and the
  // destructor joins them before it dies.
  std::vector<std::thread> workers_;
};

}  // namespace pass

#endif  // PASS_ENGINE_QUERY_SCHEDULER_H_
