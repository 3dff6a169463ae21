// Spans recorded by the traced run around the calls the benchmark makes
// into each layer's public entry points. Nothing inside the engine is
// instrumented: a span covers one call, timed from the benchmark's side.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call. `name` is "<layer>.<stage>"; a root is named "query"
/// (one client operation, timed as the client sees it) or "<layer>.<op>"
/// for roots that are not queries (an insert batch, a kernel replay).
struct Span {
  uint64_t query = 0;  // the stream position the span belongs to
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 for a root
  const char* name = "";
  /// True for spans that run alongside their siblings on other threads
  /// (the shards of one fan-out).
  bool concurrent = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Hands out span ids and keeps every finished span in memory until the
/// run ends. Thread-safe.
class Tracer {
 public:
  uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Moves `spans` into the trace, stamping them with `query`.
  void Append(std::vector<Span>* spans, uint64_t query);

  std::vector<Span> Spans() const;

 private:
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times one call: starts on construction, records into `out` on End()
/// or destruction.
class SpanTimer {
 public:
  SpanTimer(Tracer* tracer, std::vector<Span>* out, const char* name,
            uint32_t parent, bool concurrent = false);
  ~SpanTimer() { End(); }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  uint32_t id() const { return span_.id; }
  int64_t start_ns() const { return span_.start_ns; }
  /// Records the span (once) and returns its end time.
  int64_t End();

 private:
  std::vector<Span>* out_;
  Span span_;
  bool open_ = true;
};

/// Per-layer self times and per-stage durations of a finished trace.
///
/// A span's self time is its duration minus the time its sequential
/// children cover, minus its slowest concurrent child: concurrent
/// children overlap, so only the slowest one blocks the parent. Self
/// times summed along that blocking path therefore add up to the root's
/// duration exactly, and a root's own self time is glue between layers.
struct TraceSummary {
  /// Blocking-path self time per layer, summed over the query and insert
  /// roots, in microseconds. "glue" is root self time.
  std::map<std::string, double> self_us;
  /// Summed duration of those roots: the traced end-to-end time.
  double roots_us = 0.0;
  /// Every span's duration by name, in microseconds.
  std::map<std::string, std::vector<double>> duration_us;
  /// Per span with concurrent children: its duration minus the slowest
  /// child, and the slowest child over the children's mean.
  std::vector<double> fanout_overhead_us;
  std::vector<double> skew;
};

TraceSummary Summarize(const std::vector<Span>& spans);

/// Writes the spans as tab-separated lines with a header.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
