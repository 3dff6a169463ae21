#include "core/hard_bounds.h"

#include <algorithm>
#include <limits>

namespace pass {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

HardBounds ComputeHardBounds(const PartitionTree& tree,
                             const std::vector<int32_t>& covered,
                             const std::vector<int32_t>& partial,
                             AggregateType agg,
                             std::optional<double> observed_min,
                             std::optional<double> observed_max) {
  HardBounds out;
  if (covered.empty() && partial.empty()) return out;  // empty query: no info
  out.valid = true;

  // Aggregate the covered side exactly.
  AggregateStats cov;
  for (const int32_t id : covered) cov.Merge(tree.node(id).stats);

  switch (agg) {
    case AggregateType::kSum: {
      double lb = cov.sum;
      double ub = cov.sum;
      for (const int32_t id : partial) {
        const Interval part = SumContribution(tree.node(id).stats);
        lb += part.lo;
        ub += part.hi;
      }
      out.lb = lb;
      out.ub = ub;
      break;
    }
    case AggregateType::kCount: {
      out.lb = static_cast<double>(cov.count);
      out.ub = static_cast<double>(cov.count);
      for (const int32_t id : partial) {
        out.ub += static_cast<double>(tree.node(id).stats.count);
      }
      break;
    }
    case AggregateType::kAvg: {
      // ub = max(avg over covered, MAX(R_partial)); lb symmetric (Sec 2.3).
      double lb = kInf;
      double ub = -kInf;
      if (cov.count > 0) {
        lb = std::min(lb, cov.Mean());
        ub = std::max(ub, cov.Mean());
      }
      for (const int32_t id : partial) {
        const AggregateStats& s = tree.node(id).stats;
        lb = std::min(lb, s.min);
        ub = std::max(ub, s.max);
      }
      out.lb = lb;
      out.ub = ub;
      break;
    }
    case AggregateType::kMin: {
      // True min is >= the smallest value any intersecting partition holds.
      double lb = kInf;
      for (const int32_t id : covered) {
        lb = std::min(lb, tree.node(id).stats.min);
      }
      for (const int32_t id : partial) {
        lb = std::min(lb, tree.node(id).stats.min);
      }
      // Upper bound: any observed matching value; else any matching tuple
      // is <= its partition's max, so <= max over all intersecting maxes.
      double ub = kInf;
      if (cov.count > 0) ub = std::min(ub, cov.min);
      if (observed_min.has_value()) ub = std::min(ub, *observed_min);
      if (ub == kInf) {
        ub = -kInf;
        for (const int32_t id : partial) {
          ub = std::max(ub, tree.node(id).stats.max);
        }
      }
      out.lb = lb;
      out.ub = ub;
      break;
    }
    case AggregateType::kMax: {
      double ub = -kInf;
      for (const int32_t id : covered) {
        ub = std::max(ub, tree.node(id).stats.max);
      }
      for (const int32_t id : partial) {
        ub = std::max(ub, tree.node(id).stats.max);
      }
      double lb = -kInf;
      if (cov.count > 0) lb = std::max(lb, cov.max);
      if (observed_max.has_value()) lb = std::max(lb, *observed_max);
      if (lb == -kInf) {
        lb = kInf;
        for (const int32_t id : partial) {
          lb = std::min(lb, tree.node(id).stats.min);
        }
      }
      out.lb = lb;
      out.ub = ub;
      break;
    }
  }
  return out;
}

}  // namespace pass
