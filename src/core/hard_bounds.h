#ifndef PASS_CORE_HARD_BOUNDS_H_
#define PASS_CORE_HARD_BOUNDS_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "core/partition_tree.h"
#include "core/query.h"

namespace pass {

/// Deterministic bounds on a query result (Section 2.3): a 100% confidence
/// interval derived only from the per-partition SUM/COUNT/MIN/MAX. When
/// valid == true the true answer is guaranteed to lie in [lb, ub].
struct HardBounds {
  double lb = 0.0;
  double ub = 0.0;
  bool valid = false;
};

/// The interval the SUM of any subset of a node's rows lies in:
/// count * min(0, min) to count * max(0, max), or the node's whole SUM on a
/// side where no value has the other sign. Both the SUM bounds below and
/// the estimator's fallback for a leaf without a sample scan use it.
inline Interval SumContribution(const AggregateStats& stats) {
  const double cnt = static_cast<double>(stats.count);
  return {(stats.max <= 0.0) ? stats.sum : cnt * std::min(0.0, stats.min),
          (stats.min >= 0.0) ? stats.sum : cnt * std::max(0.0, stats.max)};
}

/// Computes the bounds given the MCF classification. `covered` nodes are
/// fully inside the query predicate; `partial` nodes overlap it with
/// unknown matched cardinality (this must include any nodes the estimator
/// admitted through the 0-variance rule — their value is known but their
/// matched count is not).
///
/// For MIN/MAX queries the caller may pass the best matching value it has
/// observed (covered extrema or matched sample rows) through
/// `observed_min` / `observed_max`; this tightens one side of the bound.
///
/// Unlike the paper's Section 2.3 exposition, the SUM bounds here do not
/// assume non-negative values: a partial node with mixed-sign values is
/// bounded by count*min(0,min) and count*max(0,max). With non-negative
/// data the bounds reduce exactly to the paper's formulas.
HardBounds ComputeHardBounds(const PartitionTree& tree,
                             const std::vector<int32_t>& covered,
                             const std::vector<int32_t>& partial,
                             AggregateType agg,
                             std::optional<double> observed_min = {},
                             std::optional<double> observed_max = {});

}  // namespace pass

#endif  // PASS_CORE_HARD_BOUNDS_H_
