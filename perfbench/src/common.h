// Shared plumbing of the perfbench workloads: options, the report every
// workload fills, quantiles, bit-level answer comparison and the exact
// ground truth the correctness gate checks answers against.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/answer.h"
#include "core/query.h"
#include "storage/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every dataset and pool size; the smoke test runs at 0.02.
  double scale = 1.0;
  size_t threads = 1;     // nproc of the machine running the benchmark
  std::string spans_out;  // where the traced run writes its spans
};

/// Scales a workload size, keeping at least `floor` items.
size_t Scaled(const Options& options, size_t full, size_t floor);

/// What one run reports: named metrics with units, and the correctness
/// tally (every check that can fail counts one attempt).
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// One checked operation; `ok == false` counts a violation and logs the
  /// first few to stderr.
  void Check(bool ok, const std::string& what);
  /// Logs to stderr how long the run has taken when it reaches `stage`.
  void Stage(const char* stage) const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The one JSON line the benchmark ends its standard output with.
  std::string Json() const;
  /// The same metrics as an aligned human-readable table.
  std::string Table() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int64_t created_ns_ = NowNs();
};

/// Linear-interpolated quantile of `values` (copied and sorted); 0 when
/// empty.
double Quantile(std::vector<double> values, double q);

/// Exact SUM and COUNT of one predicate; AVG is their ratio.
struct Truth {
  double sum = 0.0;
  uint64_t count = 0;
  double Value(pass::AggregateType agg) const;
};

/// Exact truths of `predicates` over `data`, computed on `threads` threads.
std::vector<Truth> ExactTruths(const pass::Dataset& data,
                               const std::vector<pass::Rect>& predicates,
                               size_t threads);

/// Sum and count of the rows [begin, end) of `data` that match `rect`.
Truth ScanTruth(const pass::Dataset& data, const pass::Rect& rect,
                size_t begin, size_t end);

/// The correctness gate for one answer: SUM and COUNT answers must carry
/// hard bounds that contain the exact value (with float round-off
/// slack). Other aggregates pass.
bool HardBoundsHold(const pass::QueryAnswer& answer, pass::AggregateType agg,
                    const Truth& truth);
bool HardBoundsHold(const pass::MultiAnswer& answer, const Truth& truth);

/// Relative error and CI coverage over scored answers (nonzero truths).
class Accuracy {
 public:
  void Score(const pass::QueryAnswer& answer, double truth);
  double MedianRelError() const { return Quantile(rel_errors_, 0.5); }
  double Coverage() const;

 private:
  std::vector<double> rel_errors_;
  uint64_t covered_ = 0;
};

/// Bit-for-bit equality of every field of two answers.
bool SameBits(const pass::QueryAnswer& a, const pass::QueryAnswer& b);
bool SameBits(const pass::MultiAnswer& a, const pass::MultiAnswer& b);

/// Anchored random range predicates over `dims`, as the paper draws them.
std::vector<pass::Rect> RangePredicates(const pass::Dataset& data,
                                        std::vector<size_t> dims,
                                        size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
