#include "core/answer_merge.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "core/estimator.h"

namespace pass {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when the shard's MCF frontier was completely empty: no partition
/// intersects the predicate, so the shard provably holds no matching rows
/// and contributes exactly zero weight to the merged answer.
bool HasNoIntersection(const QueryAnswer& part) {
  return part.exact && part.covered_nodes == 0 && part.partial_leaves == 0 &&
         part.matched_sample_rows == 0;
}

/// True when the shard produced any matching evidence (covered partitions
/// or matched sample rows) its MIN/MAX point estimate can stand on.
bool HasEvidence(const QueryAnswer& part) {
  return part.covered_nodes > 0 || part.matched_sample_rows > 0;
}

void MergeDiagnostics(const std::vector<QueryAnswer>& parts,
                      QueryAnswer* out) {
  for (const QueryAnswer& part : parts) {
    out->population_rows += part.population_rows;
    out->population_rows_skipped += part.population_rows_skipped;
    out->sample_rows_scanned += part.sample_rows_scanned;
    out->matched_sample_rows += part.matched_sample_rows;
    out->scan_units_planned += part.scan_units_planned;
    out->covered_nodes += part.covered_nodes;
    out->partial_leaves += part.partial_leaves;
    out->nodes_visited += part.nodes_visited;
    // Anytime truncation propagates: a merged answer is truncated when
    // any shard's budget left planned scan units unexecuted.
    out->truncated = out->truncated || part.truncated;
  }
}

/// Contribution bounds of one shard to an additive (SUM/COUNT) merge. An
/// exact part contributes [value, value] even when it carries no explicit
/// hard bounds (a disjoint shard answers exactly 0).
bool AdditiveBounds(const QueryAnswer& part, double* lb, double* ub) {
  if (part.hard_lb && part.hard_ub) {
    *lb = *part.hard_lb;
    *ub = *part.hard_ub;
    return true;
  }
  if (part.exact) {
    *lb = part.estimate.value;
    *ub = part.estimate.value;
    return true;
  }
  return false;
}

QueryAnswer MergeAdditive(const std::vector<QueryAnswer>& parts) {
  QueryAnswer out;
  out.exact = true;
  double lb = 0.0;
  double ub = 0.0;
  bool bounds_valid = true;
  for (const QueryAnswer& part : parts) {
    out.estimate.value += part.estimate.value;
    out.estimate.variance += part.estimate.variance;
    out.exact = out.exact && part.exact;
    double part_lb = 0.0;
    double part_ub = 0.0;
    if (bounds_valid && AdditiveBounds(part, &part_lb, &part_ub)) {
      lb += part_lb;
      ub += part_ub;
    } else {
      bounds_valid = false;
    }
  }
  if (bounds_valid) {
    out.hard_lb = lb;
    out.hard_ub = ub;
  }
  return out;
}

QueryAnswer MergeExtremum(bool is_min, const std::vector<QueryAnswer>& parts) {
  QueryAnswer out;
  out.exact = true;
  // Point estimate: best value among shards with matching evidence (shards
  // without evidence report a bounds midpoint that must not leak in).
  double best = is_min ? kInf : -kInf;
  bool any_evidence = false;
  for (const QueryAnswer& part : parts) {
    out.exact = out.exact && part.exact;
    if (!HasEvidence(part)) continue;
    any_evidence = true;
    best = is_min ? std::min(best, part.estimate.value)
                  : std::max(best, part.estimate.value);
  }
  // Bounds (MIN case; MAX is the mirror image). The outer bound is
  // unconditional: every matching tuple anywhere is >= its shard's lb, so
  // the union's lb is the min of shard lbs. A shard's *upper* bound on
  // its own min, however, is only valid if that shard actually contains a
  // matching tuple — hard_bounds.cc derives the no-observation fallback
  // under exactly that assumption. Shards with evidence provably do, so
  // their ubs tighten the union (min over them); if no shard has
  // evidence, the match — if one exists at all, which is the convention
  // hard bounds are stated under — could be in any intersecting shard, so
  // only the weakest ub (max over them) is sound. Empty-frontier shards
  // hold no matching rows and drop out entirely; an intersecting shard
  // without bounds leaves the merged bound undeterminable.
  double outer = is_min ? kInf : -kInf;          // lb for MIN, ub for MAX
  double inner_evidence = is_min ? kInf : -kInf; // over evidence shards
  double inner_weak = is_min ? -kInf : kInf;     // over all intersecting
  bool evidence_bounds = false;
  bool bounds_valid = false;
  bool bounds_ok = true;
  for (const QueryAnswer& part : parts) {
    if (part.hard_lb && part.hard_ub) {
      bounds_valid = true;
      if (is_min) {
        outer = std::min(outer, *part.hard_lb);
        inner_weak = std::max(inner_weak, *part.hard_ub);
        if (HasEvidence(part)) {
          evidence_bounds = true;
          inner_evidence = std::min(inner_evidence, *part.hard_ub);
        }
      } else {
        outer = std::max(outer, *part.hard_ub);
        inner_weak = std::min(inner_weak, *part.hard_lb);
        if (HasEvidence(part)) {
          evidence_bounds = true;
          inner_evidence = std::max(inner_evidence, *part.hard_lb);
        }
      }
    } else if (!HasNoIntersection(part)) {
      bounds_ok = false;
    }
  }
  if (bounds_valid && bounds_ok) {
    const double inner = evidence_bounds ? inner_evidence : inner_weak;
    out.hard_lb = is_min ? outer : inner;
    out.hard_ub = is_min ? inner : outer;
  }
  if (any_evidence) {
    out.estimate.value = best;
  } else {
    out.estimate.value =
        out.hard_lb ? 0.5 * (*out.hard_lb + *out.hard_ub) : 0.0;
  }
  out.estimate.variance = 0.0;  // extrema carry no CLT interval
  return out;
}

}  // namespace

QueryAnswer MergeShardAnswers(AggregateType agg,
                              const std::vector<QueryAnswer>& parts) {
  PASS_CHECK_MSG(!parts.empty(), "cannot merge zero shard answers");
  PASS_CHECK_MSG(agg != AggregateType::kAvg,
                 "AVG merging needs MergeShardMulti (fused shard answers)");
  QueryAnswer out;
  switch (agg) {
    case AggregateType::kSum:
    case AggregateType::kCount:
      out = MergeAdditive(parts);
      break;
    case AggregateType::kMin:
    case AggregateType::kMax:
      out = MergeExtremum(agg == AggregateType::kMin, parts);
      break;
    case AggregateType::kAvg:
      break;  // unreachable, checked above
  }
  MergeDiagnostics(parts, &out);
  return out;
}

MultiAnswer MergeShardMulti(const std::vector<MultiAnswer>& parts) {
  PASS_CHECK_MSG(!parts.empty(), "cannot merge zero shard answers");
  MultiAnswer out;

  std::vector<QueryAnswer> sums;
  std::vector<QueryAnswer> counts;
  sums.reserve(parts.size());
  counts.reserve(parts.size());
  for (const MultiAnswer& p : parts) {
    sums.push_back(p.sum);
    counts.push_back(p.count);
  }
  out.sum = MergeShardAnswers(AggregateType::kSum, sums);
  out.count = MergeShardAnswers(AggregateType::kCount, counts);

  // Shards sample independently, so the cross-aggregate covariances add
  // just like the variances. A non-fused part reports 0 — conservative
  // for positively correlated (e.g. non-negative) aggregation columns —
  // and demotes the merged answer to non-fused.
  out.fused = true;
  for (const MultiAnswer& p : parts) {
    out.sum_count_cov += p.sum_count_cov;
    out.fused = out.fused && p.fused;
  }

  QueryAnswer avg;
  avg.exact = true;
  // AVG bounds: the union's average is a cardinality-weighted convex
  // combination of the nonempty shards' averages, so it lies within
  // [min lb_i, max ub_i]; empty-frontier shards have weight 0 and drop out.
  double lb = kInf;
  double ub = -kInf;
  bool bounds_valid = false;
  bool bounds_ok = true;
  for (const MultiAnswer& p : parts) {
    avg.exact = avg.exact && p.avg.exact;
    if (p.avg.hard_lb && p.avg.hard_ub) {
      bounds_valid = true;
      lb = std::min(lb, *p.avg.hard_lb);
      ub = std::max(ub, *p.avg.hard_ub);
    } else if (!HasNoIntersection(p.avg)) {
      bounds_ok = false;
    }
  }
  if (bounds_valid && bounds_ok) {
    avg.hard_lb = lb;
    avg.hard_ub = ub;
  }

  // The ratio over the merged SUM and COUNT; with no evidence of any
  // matching tuple anywhere, the merged hard-bound midpoint, mirroring the
  // single-synopsis estimator. An exact merge has no sampling variance.
  Estimate no_evidence;
  if (avg.hard_lb) no_evidence = MidpointOverBounds(*avg.hard_lb, *avg.hard_ub);
  avg.estimate = RatioEstimate(out.sum.estimate, out.count.estimate,
                               out.sum_count_cov, no_evidence);
  if (avg.exact && out.count.estimate.value > 0.0) {
    avg.estimate.variance = 0.0;
  }

  // One fused evaluation per shard: the shared per-shard diagnostics sum
  // to exactly the work performed (the pre-fusion merge only counted the
  // AVG sub-answer of three calls, hiding two-thirds of the scans).
  std::vector<QueryAnswer> avg_parts;
  avg_parts.reserve(parts.size());
  for (const MultiAnswer& p : parts) avg_parts.push_back(p.avg);
  MergeDiagnostics(avg_parts, &avg);
  out.avg = avg;
  return out;
}

}  // namespace pass
