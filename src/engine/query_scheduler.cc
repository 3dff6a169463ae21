#include "engine/query_scheduler.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"
#include "stats/confidence.h"

namespace pass {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MillisBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Deadline pricing: the scheduler keeps an EWMA of the observed
// per-scan-unit cost (run ms per sample row, fed by the budget-capable
// queries it completes) and grants a deadline query
//   floor(remaining_ms * kSafetyFactor / ewma_unit_cost_ms)
// scan units, with the deadline itself attached as the soft cutoff.

/// Weight of the newest observation in the EWMA.
constexpr double kEwmaAlpha = 0.2;
/// Per-scan-unit cost assumed before the first observation (~50 ns/row, a
/// scalar predicate-match loop). It only has to be in the right ballpark:
/// the EWMA takes over from the first completed query.
constexpr double kInitialUnitCostMs = 5e-5;
/// Fraction of the remaining time the unit budget may plan to spend; the
/// rest absorbs walk/merge overhead and estimation noise. The soft
/// deadline backstops whatever this underestimates.
constexpr double kSafetyFactor = 0.5;
/// How long an idle worker polls for the next task before it parks on the
/// condition variable. A futex wake-up costs several microseconds, about
/// as long as a served query's answer; a parked worker costs no CPU. The
/// window covers a client's round trip between one answer and its next
/// submit, and bounds how long Shutdown's last worker lingers.
constexpr std::chrono::microseconds kSpinWindow{50};

/// Observations from runs that scanned fewer units than this are ignored:
/// run_ms includes the fixed per-query overhead (MCF walk, split, merge),
/// so a small-unit run reports a per-unit cost inflated by orders of
/// magnitude. Feeding those back would ratchet the EWMA upward and shrink
/// every later grant — a positive feedback that collapses sustained
/// tight-deadline traffic to zero-budget answers. Above this many units
/// the fixed overhead amortizes into the noise.
constexpr uint64_t kMinUnitsToCalibrate = 64;

size_t ResolveNumThreads(size_t requested) {
  if (requested != 0) return requested;
  const size_t hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

using FusedMember = QueryAnswer MultiAnswer::*;

/// The component of a fused MultiAnswer that a progressive submission
/// refines, or nullptr outside SUM/COUNT/AVG (no fused resumable path).
FusedMember FusedComponent(AggregateType agg) {
  switch (agg) {
    case AggregateType::kSum:
      return &MultiAnswer::sum;
    case AggregateType::kCount:
      return &MultiAnswer::count;
    case AggregateType::kAvg:
      return &MultiAnswer::avg;
    default:
      return nullptr;
  }
}

}  // namespace

/// One admitted submission. Heap-allocated and owned by the queue, then by
/// the worker running it: the submitting thread may abandon its future (or
/// passed only a callback), so the task cannot live on its stack.
struct QueryScheduler::Task {
  const AqpSystem* system = nullptr;
  Query query;
  uint64_t ticket = 0;
  SteadyClock::time_point admitted;
  std::optional<SteadyClock::time_point> deadline;
  std::optional<StoppingCondition> until;
  // Engaged only for a future submission: libstdc++'s promise allocates
  // its shared state on construction, which a callback never reads.
  std::optional<std::promise<ScheduledAnswer>> promise;
  Callback done;

  void Resolve(ScheduledAnswer result) {
    if (promise) promise->set_value(result);
    if (done) done(std::move(result));
  }
};

QueryScheduler::QueryScheduler(const SchedulerOptions& options)
    : num_threads_(ResolveNumThreads(options.num_threads)),
      max_in_flight_(options.max_in_flight),
      unit_cost_ms_(kInitialUnitCostMs) {
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::QueryScheduler(size_t num_threads)
    : QueryScheduler(SchedulerOptions{num_threads, /*max_in_flight=*/0}) {}

QueryScheduler::~QueryScheduler() {
  Shutdown();
  for (std::thread& worker : workers_) worker.join();
}

size_t QueryScheduler::InFlight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

std::future<ScheduledAnswer> QueryScheduler::Submit(
    const AqpSystem& system, Query query, const SubmitOptions& options) {
  return SubmitInternal(system, std::move(query), options, /*done=*/nullptr,
                        /*want_future=*/true);
}

void QueryScheduler::Submit(const AqpSystem& system, Query query,
                            const SubmitOptions& options, Callback done) {
  PASS_CHECK(done != nullptr);
  (void)SubmitInternal(system, std::move(query), options, std::move(done),
                       /*want_future=*/false);
}

std::future<ScheduledAnswer> QueryScheduler::AnswerUntil(
    const AqpSystem& system, Query query, const StoppingCondition& condition,
    const SubmitOptions& options) {
  SubmitOptions progressive = options;
  progressive.until = condition;
  return SubmitInternal(system, std::move(query), progressive,
                        /*done=*/nullptr, /*want_future=*/true);
}

void QueryScheduler::AnswerUntil(const AqpSystem& system, Query query,
                                 const StoppingCondition& condition,
                                 const SubmitOptions& options, Callback done) {
  PASS_CHECK(done != nullptr);
  SubmitOptions progressive = options;
  progressive.until = condition;
  (void)SubmitInternal(system, std::move(query), progressive, std::move(done),
                       /*want_future=*/false);
}

std::future<ScheduledAnswer> QueryScheduler::SubmitInternal(
    const AqpSystem& system, Query query, const SubmitOptions& options,
    Callback done, bool want_future) {
  auto task = std::make_unique<Task>();
  task->system = &system;
  task->query = std::move(query);
  task->until = options.until;
  task->done = std::move(done);
  std::future<ScheduledAnswer> future;
  if (want_future) future = task->promise.emplace().get_future();

  bool only_queued = false;
  {
    MutexLock lock(mu_);
    // Backpressure: a bounded scheduler blocks the producer until a slot
    // frees. Shutdown unblocks every waiting producer into rejection.
    if (max_in_flight_ > 0) {
      while (!shutdown_ && in_flight_ >= max_in_flight_) {
        slot_free_.Wait(mu_);
      }
    }
    if (!shutdown_) {
      task->ticket = ++next_ticket_;
      task->admitted = SteadyClock::now();
      if (options.deadline) {
        task->deadline = task->admitted + *options.deadline;
      }
      ++in_flight_;
      queue_.push_back(std::move(task));
      queued_.store(queue_.size(), std::memory_order_relaxed);
      only_queued = queue_.size() == 1;
    }
  }
  if (task == nullptr) {  // queued
    // A spinning worker takes a lone task without a wake-up. The spinner
    // clears spinning_ before it takes mu_ to re-check the queue, so a
    // load that still reads the flag set precedes that re-check, which
    // then finds this task.
    if (!only_queued || !spinning_.load()) task_ready_.NotifyOne();
    return future;
  }
  ScheduledAnswer result;
  result.status =
      Status::Unavailable("QueryScheduler is shut down; query rejected");
  task->Resolve(std::move(result));
  return future;
}

std::unique_ptr<QueryScheduler::Task> QueryScheduler::NextTask() {
  // Spin first, without the lock, if the queue looks empty and no other
  // worker spins. The window ends on its own, so a spinner never misses
  // shutdown by more than kSpinWindow. Each poll yields rather than
  // pauses: the thread this worker has just woken (a client blocked on
  // its future, or one its callback notified) may be queued on this very
  // CPU, and a pausing spinner would hold it off for the whole window.
  if (queued_.load(std::memory_order_relaxed) == 0 &&
      !spinning_.exchange(true)) {
    const SteadyClock::time_point until = SteadyClock::now() + kSpinWindow;
    while (queued_.load(std::memory_order_relaxed) == 0 &&
           SteadyClock::now() < until) {
      std::this_thread::yield();
    }
    spinning_.store(false);  // before the re-check below (see Submit)
  }
  MutexLock lock(mu_);
  while (!shutdown_ && queue_.empty()) task_ready_.Wait(mu_);
  if (queue_.empty()) return nullptr;  // shutdown with a drained queue
  std::unique_ptr<Task> task = std::move(queue_.front());
  queue_.pop_front();
  queued_.store(queue_.size(), std::memory_order_relaxed);
  return task;
}

void QueryScheduler::WorkerLoop() {
  while (std::unique_ptr<Task> task = NextTask()) {
    ScheduledAnswer result;
    RunTask(*task, &result);
    result.total_ms = MillisBetween(task->admitted, SteadyClock::now());
    task->Resolve(std::move(result));
    task.reset();  // the callback's captures die before Drain() returns
    {
      MutexLock lock(mu_);
      --in_flight_;
    }
    // Wakes both backpressured producers and Drain()/Shutdown() waiters.
    slot_free_.NotifyAll();
  }
}

double QueryScheduler::CalibratedUnitCostMs() const {
  MutexLock lock(calibration_mu_);
  return unit_cost_ms_;
}

void QueryScheduler::ObserveUnitCost(double run_ms, uint64_t units) {
  if (!(run_ms > 0.0) || units < kMinUnitsToCalibrate) return;
  const double observed = run_ms / static_cast<double>(units);
  MutexLock lock(calibration_mu_);
  unit_cost_ms_ += kEwmaAlpha * (observed - unit_cost_ms_);
}

void QueryScheduler::RunTask(const Task& task, ScheduledAnswer* result) {
  const SteadyClock::time_point dispatched = SteadyClock::now();
  result->ticket = task.ticket;
  result->queue_ms = MillisBetween(task.admitted, dispatched);
  const bool budgetable = task.system->SupportsBudget();
  if (task.deadline && dispatched > *task.deadline && !budgetable) {
    // Expired while queued on a system that cannot truncate: the query is
    // never run, so an overloaded scheduler sheds the work itself, not
    // just the answer.
    result->status = Status::DeadlineExceeded(
        "deadline expired before the query was dispatched");
    return;
  }
  if (task.until && budgetable &&
      FusedComponent(task.query.agg) != nullptr) {
    // Ticket-derived seed, like the anytime path (see ScheduledAnswer).
    const std::unique_ptr<EstimationSession> session =
        task.system->StartSession(task.query.predicate, task.ticket);
    if (session != nullptr) {
      RunProgressive(task, session.get(), dispatched, result);
      return;
    }
    // No resumable session (a degenerate predicate, or a system without
    // one): answered below exactly like the submission without `until`.
  }

  AnswerOptions options;
  const bool anytime = task.deadline && budgetable;
  if (anytime) {
    // Deadline-to-budget conversion: grant whatever the remaining time
    // buys at the calibrated per-unit cost (zero for a query that expired
    // in the queue — it still gets the pure bounds-midpoint answer), with
    // the deadline itself as the soft cutoff against miscalibration.
    uint64_t granted = 0;
    if (dispatched < *task.deadline) {
      const double remaining_ms = MillisBetween(dispatched, *task.deadline);
      // Floor the learned cost at 1ns/unit so a degenerate calibration
      // cannot blow the quotient up, and saturate the double->uint64_t
      // conversion: casting a value beyond the target range is UB (UBSan
      // float-cast-overflow).
      const double unit_cost_ms = std::max(CalibratedUnitCostMs(), 1e-6);
      const double raw = remaining_ms * kSafetyFactor / unit_cost_ms;
      constexpr double kMaxGrant = 9e18;  // < 2^63, safely castable
      granted = static_cast<uint64_t>(std::min(std::max(raw, 0.0),
                                               kMaxGrant));
      options.budget.soft_deadline = *task.deadline;
    }
    options.budget.max_scan_units = granted;
    // Any scheduler-level randomness must derive from the ticket (see
    // ScheduledAnswer::ticket): here, the budget's spend-priority seed.
    options.seed = task.ticket;
    result->budget_total = granted;
  }
  const SteadyClock::time_point started = SteadyClock::now();
  result->answer = task.system->Answer(task.query, options);
  result->run_ms = MillisBetween(started, SteadyClock::now());
  if (anytime) {
    result->budget_used = result->answer.sample_rows_scanned;
    result->truncated = result->answer.truncated;
  }
  // Deadline-free traffic warms the deadline-pricing EWMA too (scan units
  // consumed are reported by every budget-capable system), unless a cache
  // may have served it: a hit returns in about a microsecond, reporting
  // the scan of the miss that stored it. Budgeted answers bypass caches.
  if (budgetable && (anytime || task.system->AnswerCache() == nullptr)) {
    ObserveUnitCost(result->run_ms, result->answer.sample_rows_scanned);
  }
}

void QueryScheduler::RunProgressive(const Task& task,
                                    EstimationSession* session,
                                    SteadyClock::time_point started,
                                    ScheduledAnswer* result) {
  const StoppingCondition& condition = *task.until;
  const double lambda = LambdaForConfidence(condition.confidence);
  const FusedMember component = FusedComponent(task.query.agg);
  const uint64_t plan = session->PlanCost();
  const uint64_t step =
      condition.min_step_units > 0
          ? condition.min_step_units
          : std::max<uint64_t>(64, plan / 16);

  // The refinement ladder: 0, step, 2*step, 4*step, ... Zero first — the
  // bounds-only answer is free and sometimes already tight enough; then
  // doubling keeps the total number of reassemblies logarithmic in the
  // plan while each AdvanceTo scans only the delta units. A step stops at
  // the first unit it reaches after the deadline, so no step overruns it
  // by more than one unit's scan.
  uint64_t cap = 0;
  uint32_t refinements = 0;
  while (true) {
    const MultiAnswer multi = session->AdvanceTo(cap, task.deadline);
    const QueryAnswer& answer = multi.*component;
    const bool tight =
        condition.target_ci_width > 0.0 &&
        answer.estimate.HalfWidth(lambda) <= condition.target_ci_width;
    const bool out_of_time =
        task.deadline && SteadyClock::now() >= *task.deadline;
    const bool final_step = tight || out_of_time || session->Exhausted();

    result->answer = answer;
    result->budget_total = std::min(cap, plan);
    result->budget_used = session->UnitsScanned();
    result->truncated = answer.truncated;
    result->refinements = refinements;
    result->is_final = final_step;
    if (final_step) break;

    if (task.done) {
      // Stream the intermediate answer; only the final one resolves the
      // submission (and is the only one a future ever sees).
      ScheduledAnswer intermediate = *result;
      const SteadyClock::time_point now = SteadyClock::now();
      intermediate.run_ms = MillisBetween(started, now);
      intermediate.total_ms = MillisBetween(task.admitted, now);
      task.done(intermediate);
    }
    cap = cap == 0 ? step : cap * 2;
    ++refinements;
  }
  result->run_ms = MillisBetween(started, SteadyClock::now());
  ObserveUnitCost(result->run_ms, result->budget_used);
}

void QueryScheduler::Drain() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) slot_free_.Wait(mu_);
}

void QueryScheduler::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  slot_free_.NotifyAll();   // release producers blocked on backpressure
  task_ready_.NotifyAll();  // idle workers exit once the queue is empty
  // Always drain — even on a repeat call — so *every* caller returns only
  // once in-flight work is done. Shutdown is the teardown fence callers
  // rely on before destroying the engines they submitted, so a concurrent
  // second caller must not return early while queries still run.
  Drain();
}

}  // namespace pass
