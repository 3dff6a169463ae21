#ifndef PASS_CORE_EXACT_H_
#define PASS_CORE_EXACT_H_

#include <cmath>
#include <cstdint>

#include "core/query.h"
#include "storage/dataset.h"

namespace pass {

class KernelCache;

/// Ground-truth result of a query computed by a full scan. `value` is the
/// exact aggregate; for AVG/MIN/MAX it is meaningful only when matched > 0.
struct ExactResult {
  double value = 0.0;
  uint64_t matched = 0;
};

/// True when the truth can score an estimate: non-empty, finite, non-zero
/// (relative error is undefined at zero). One definition shared by the
/// harness metrics and the batch scorer so their error numbers never
/// diverge for the same run.
inline bool UsableGroundTruth(const ExactResult& truth) {
  return truth.matched > 0 && std::isfinite(truth.value) &&
         truth.value != 0.0;
}

/// |estimate - truth| / |truth|. Callers must have checked
/// UsableGroundTruth.
inline double RelativeError(double estimate, const ExactResult& truth) {
  return std::abs(estimate - truth.value) / std::abs(truth.value);
}

/// Scans the entire dataset. Used for ground truth in tests, benchmarks and
/// the experiment harness (never on the query path of any synopsis).
///
/// Deliberately outside the anytime/WorkBudget contract: a partially
/// executed full scan has no deterministic fallback to fall back on (there
/// are no precomputed per-partition bounds here), so exact answering is
/// all-or-nothing — the serving layer sheds an over-deadline exact query
/// instead of truncating it (ExactSystem::SupportsBudget() is false).
///
/// `kernel_cache` optionally counts which kernel tier served the scan
/// (jit/kernel_cache.h). MIN/MAX queries need the full aggregate shape;
/// SUM/COUNT/AVG scan the cheaper moments-only shape.
ExactResult ExactAnswer(const Dataset& data, const Query& query,
                        KernelCache* kernel_cache = nullptr);

/// Sum, count and average of the matching tuples from ONE scan — the fused
/// counterpart of three per-aggregate ExactAnswer calls. `avg` is NaN when
/// nothing matches, mirroring ExactAnswer's AVG convention.
struct ExactMultiResult {
  double sum = 0.0;
  uint64_t matched = 0;
  double avg = 0.0;
};

ExactMultiResult ExactMultiAnswer(const Dataset& data, const Rect& predicate,
                                  KernelCache* kernel_cache = nullptr);

}  // namespace pass

#endif  // PASS_CORE_EXACT_H_
