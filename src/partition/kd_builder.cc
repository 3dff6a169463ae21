#include "partition/kd_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "geom/kd_split.h"
#include "partition/build_options.h"
#include "stats/sampling.h"

namespace pass {
namespace {

/// Per-open-leaf bookkeeping during expansion.
struct OpenLeaf {
  int32_t node = -1;
  RowSlice slice{0, 0};
  std::vector<uint32_t> sample_rows;  // optimization-sample rows inside
  double score = 0.0;                 // approx max variance (greedy mode)
  bool splittable = true;
};

/// Approximate max-variance query score inside one leaf, computed on the
/// leaf's share of the optimization sample (Appendix A.3 / A.4 adapted to
/// d dimensions).
class LeafScorer {
 public:
  LeafScorer(const Dataset& data, const std::vector<size_t>& dims,
             AggregateType agg, double ratio, size_t window)
      : data_(data), dims_(dims), agg_(agg), ratio_(ratio), window_(window) {}

  double Score(const std::vector<uint32_t>& rows) const {
    switch (agg_) {
      case AggregateType::kCount:
        // V = ratio^2 * n/4 (Lemma A.1's analysis): depends on size only.
        return ratio_ * ratio_ * static_cast<double>(rows.size()) / 4.0;
      case AggregateType::kSum:
        return SumScore(rows);
      case AggregateType::kAvg:
        return AvgScore(rows);
      default:
        return 0.0;
    }
  }

 private:
  /// Lemma A.3: split at the median of the widest dimension; the larger
  /// half is a 4-approximation of the max-variance SUM query.
  double SumScore(const std::vector<uint32_t>& rows) const {
    const size_t n = rows.size();
    if (n < 2) return 0.0;
    const size_t dim = WidestDim(rows);
    std::vector<uint32_t> sorted = rows;
    const auto& col = data_.pred_column(dims_[dim]);
    const size_t mid = n / 2;
    std::nth_element(
        sorted.begin(), sorted.begin() + static_cast<long>(mid), sorted.end(),
        [&col](uint32_t a, uint32_t b) { return col[a] < col[b]; });
    double best = 0.0;
    const double dn = static_cast<double>(n);
    for (int half = 0; half < 2; ++half) {
      double s = 0.0;
      double ss = 0.0;
      const size_t lo = half == 0 ? 0 : mid;
      const size_t hi = half == 0 ? mid : n;
      for (size_t i = lo; i < hi; ++i) {
        const double a = data_.agg(sorted[i]);
        s += a;
        ss += a * a;
      }
      const double v = ratio_ * ratio_ / dn * std::max(0.0, dn * ss - s * s);
      best = std::max(best, v);
    }
    return best;
  }

  /// Appendix A.4 "second algorithm": carve the leaf's sample into spatial
  /// cells of ~window rows with recursive median splits and score the cell
  /// with the largest sum of squares.
  double AvgScore(const std::vector<uint32_t>& rows) const {
    const size_t n = rows.size();
    if (n < 2 * window_ || window_ == 0) return 0.0;
    double best_ss = -1.0;
    double best_s = 0.0;
    size_t best_w = window_;
    CellSearch(rows, 0, &best_ss, &best_s, &best_w);
    if (best_ss < 0.0) return 0.0;
    const double dn = static_cast<double>(n);
    const double w = static_cast<double>(best_w);
    return std::max(0.0, dn * best_ss - best_s * best_s) / (dn * w * w);
  }

  void CellSearch(const std::vector<uint32_t>& rows, size_t depth,
                  double* best_ss, double* best_s, size_t* best_w) const {
    const size_t n = rows.size();
    if (n <= 2 * window_) {
      // Terminal cell: evaluate it as one candidate query.
      double s = 0.0;
      double ss = 0.0;
      for (const uint32_t r : rows) {
        const double a = data_.agg(r);
        s += a;
        ss += a * a;
      }
      if (ss > *best_ss) {
        *best_ss = ss;
        *best_s = s;
        *best_w = n;
      }
      return;
    }
    const size_t dim = depth % dims_.size();
    const auto& col = data_.pred_column(dims_[dim]);
    std::vector<uint32_t> sorted = rows;
    const size_t mid = n / 2;
    std::nth_element(
        sorted.begin(), sorted.begin() + static_cast<long>(mid), sorted.end(),
        [&col](uint32_t a, uint32_t b) { return col[a] < col[b]; });
    std::vector<uint32_t> left(sorted.begin(),
                               sorted.begin() + static_cast<long>(mid));
    std::vector<uint32_t> right(sorted.begin() + static_cast<long>(mid),
                                sorted.end());
    CellSearch(left, depth + 1, best_ss, best_s, best_w);
    CellSearch(right, depth + 1, best_ss, best_s, best_w);
  }

  size_t WidestDim(const std::vector<uint32_t>& rows) const {
    size_t best_dim = 0;
    double best_span = -1.0;
    for (size_t j = 0; j < dims_.size(); ++j) {
      const auto& col = data_.pred_column(dims_[j]);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (const uint32_t r : rows) {
        lo = std::min(lo, col[r]);
        hi = std::max(hi, col[r]);
      }
      if (hi - lo > best_span) {
        best_span = hi - lo;
        best_dim = j;
      }
    }
    return best_dim;
  }

  const Dataset& data_;
  const std::vector<size_t>& dims_;
  AggregateType agg_;
  double ratio_;
  size_t window_;
};

/// Aggregates of the store's rows in `slice`, added in store order.
AggregateStats RangeStats(const KdRowStore& rows, const RowSlice& slice) {
  AggregateStats stats;
  for (size_t i = slice.first; i < slice.second; ++i) stats.Add(rows.agg[i]);
  return stats;
}

/// Tight bounding box of the store's rows in `slice` over every predicate
/// column (see ComputeSliceBounds).
Rect RangeBounds(const KdRowStore& rows, const RowSlice& slice) {
  Rect bounds(rows.pred.size());
  for (size_t dim = 0; dim < rows.pred.size(); ++dim) {
    const std::vector<double>& col = rows.pred[dim];
    Interval& iv = bounds.dim(dim);
    for (size_t i = slice.first; i < slice.second; ++i) iv.Expand(col[i]);
  }
  return bounds;
}

}  // namespace

KdBuildResult BuildKdPartition(const Dataset& data,
                               const KdBuildOptions& options) {
  const size_t n = data.NumRows();
  PASS_CHECK(n > 0);
  PASS_CHECK(options.max_leaves >= 1);
  std::vector<size_t> dims = options.partition_dims;
  if (dims.empty()) {
    dims.resize(data.NumPredDims());
    std::iota(dims.begin(), dims.end(), size_t{0});
  }
  for (const size_t dim : dims) PASS_CHECK(dim < data.NumPredDims());

  // Every column in permutation order, starting from row-id order; each
  // node below is one contiguous range of it. The id array becomes `perm`.
  KdRowStore rows;
  rows.pred.reserve(data.NumPredDims());
  for (size_t dim = 0; dim < data.NumPredDims(); ++dim) {
    rows.pred.push_back(data.pred_column(dim));
  }
  rows.agg = data.agg_column();
  rows.ids.resize(n);
  std::iota(rows.ids.begin(), rows.ids.end(), 0u);

  KdBuildResult out;
  Rng rng(options.seed);
  const size_t m = std::min(options.opt_sample_size, n);
  std::vector<size_t> opt_sample = SampleWithoutReplacement(n, m, &rng);
  const double ratio = static_cast<double>(n) / static_cast<double>(m);
  const size_t window = std::max<size_t>(
      1, static_cast<size_t>(std::llround(kMinOverlapFraction *
                                          static_cast<double>(m))));
  LeafScorer scorer(data, dims, options.optimize_for, ratio, window);

  // Root node over everything.
  PartitionTree::Node root_node;
  root_node.condition = Rect::All(data.NumPredDims());
  root_node.stats = RangeStats(rows, {0, n});
  root_node.data_bounds = RangeBounds(rows, {0, n});
  const int32_t root = out.tree.AddNode(std::move(root_node));
  out.tree.SetRoot(root);

  std::vector<RowSlice> node_slices;
  node_slices.push_back({0, n});

  std::vector<OpenLeaf> open(1);
  open[0].node = root;
  open[0].slice = {0, n};
  open[0].sample_rows.reserve(m);
  for (const size_t idx : opt_sample) {
    open[0].sample_rows.push_back(rows.ids[idx]);
  }
  open[0].score = scorer.Score(open[0].sample_rows);

  size_t num_leaves = 1;
  while (num_leaves < options.max_leaves) {
    // Depth-balance constraint: a leaf is expandable only while its depth
    // stays within max_depth_imbalance of the shallowest open leaf.
    uint32_t min_depth = std::numeric_limits<uint32_t>::max();
    for (const OpenLeaf& leaf : open) {
      if (leaf.splittable) {
        min_depth = std::min(min_depth,
                             out.tree.node(leaf.node).depth);
      }
    }
    if (min_depth == std::numeric_limits<uint32_t>::max()) break;

    size_t pick = open.size();
    if (options.expansion == KdExpansion::kMaxVariance) {
      double best = -1.0;
      for (size_t i = 0; i < open.size(); ++i) {
        if (!open[i].splittable) continue;
        const uint32_t depth = out.tree.node(open[i].node).depth;
        if (static_cast<int>(depth) - static_cast<int>(min_depth) >=
            options.max_depth_imbalance) {
          continue;
        }
        if (open[i].score > best) {
          best = open[i].score;
          pick = i;
        }
      }
    } else {
      // Breadth-first: shallowest leaf, random tie-break.
      uint32_t best_depth = std::numeric_limits<uint32_t>::max();
      size_t ties = 0;
      for (size_t i = 0; i < open.size(); ++i) {
        if (!open[i].splittable) continue;
        const uint32_t depth = out.tree.node(open[i].node).depth;
        if (depth < best_depth) {
          best_depth = depth;
          pick = i;
          ties = 1;
        } else if (depth == best_depth) {
          ++ties;
          if (rng.Below(ties) == 0) pick = i;
        }
      }
    }
    if (pick == open.size()) break;  // nothing eligible

    OpenLeaf leaf = std::move(open[pick]);
    if (pick + 1 != open.size()) open[pick] = std::move(open.back());
    open.pop_back();

    // Copy: AddNode below may reallocate the node storage.
    const Rect condition = out.tree.node(leaf.node).condition;
    const std::vector<KdChildSlice> children =
        MultiSplit(dims, leaf.slice.first, leaf.slice.second, condition, &rows);
    if (children.size() <= 1) {
      leaf.splittable = false;  // all points identical on partition dims
      open.push_back(std::move(leaf));
      continue;
    }

    const uint32_t parent_depth = out.tree.node(leaf.node).depth;
    for (const KdChildSlice& child : children) {
      PartitionTree::Node node;
      node.condition = child.condition;
      const RowSlice slice{child.begin, child.end};
      node.stats = RangeStats(rows, slice);
      node.data_bounds = RangeBounds(rows, slice);
      node.depth = parent_depth + 1;
      const int32_t id = out.tree.AddNode(std::move(node));
      out.tree.AddChild(leaf.node, id);
      node_slices.resize(static_cast<size_t>(id) + 1);
      node_slices[static_cast<size_t>(id)] = slice;

      OpenLeaf child_leaf;
      child_leaf.node = id;
      child_leaf.slice = slice;
      for (const uint32_t row : leaf.sample_rows) {
        bool inside = true;
        for (const size_t dim : dims) {
          if (!child.condition.dim(dim).Contains(data.pred(dim, row))) {
            inside = false;
            break;
          }
        }
        if (inside) child_leaf.sample_rows.push_back(row);
      }
      child_leaf.score = scorer.Score(child_leaf.sample_rows);
      open.push_back(std::move(child_leaf));
    }
    num_leaves += children.size() - 1;
  }

  out.tree.FinalizeLeaves();
  out.leaf_slices.assign(out.tree.NumLeaves(), RowSlice{0, 0});
  // Recover per-leaf slices: node_slices is indexed by node id but only
  // filled for nodes that were created as children (plus the root).
  for (size_t leaf_id = 0; leaf_id < out.tree.NumLeaves(); ++leaf_id) {
    const int32_t node_id = out.tree.leaves()[leaf_id];
    out.leaf_slices[leaf_id] = node_slices[static_cast<size_t>(node_id)];
  }
  out.perm = std::move(rows.ids);
  return out;
}

}  // namespace pass
