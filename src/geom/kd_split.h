#ifndef PASS_GEOM_KD_SPLIT_H_
#define PASS_GEOM_KD_SPLIT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.h"

namespace pass {

/// Low-level kd-tree splitting mechanics shared by the KD-PASS builder and
/// the KD-US baseline (Section 4.4 / 5.4). The caller owns a permutation of
/// row ids; a node is a contiguous slice [begin, end) of that permutation.
///
/// `MultiSplit` splits a slice simultaneously on the median of *every*
/// dimension ("we find the median of each attribute so the fan-out factor
/// is 2^d"), reordering the permutation in place so each child is again a
/// contiguous slice.

/// Most dimensions `MultiSplit` splits on at once: one split buckets its
/// rows into 2^d orthants. `BuildSynopsis` rejects a wider build with a
/// Status before reaching the split.
inline constexpr size_t kMaxKdDims = 16;

/// One child produced by a split.
struct KdChildSlice {
  size_t begin = 0;  // slice into the permutation
  size_t end = 0;
  Rect condition;    // partitioning condition (sub-rectangle of the parent)
};

/// Columns are passed column-major: columns[dim][row] is a coordinate.
/// `parent_condition` must have the same dimensionality as `columns`.
///
/// Splits permutation[begin, end) into up to 2^d non-empty children by the
/// per-dimension medians of the rows in the slice. Children are returned in
/// "orthant" order; empty orthants are omitted. Degenerate dimensions
/// (where all values equal the median and nothing would separate) still
/// split by value <= median vs > median, which may leave an empty side —
/// such sides are dropped. If no split separates anything (all points
/// identical in every dimension), returns a single child equal to the input
/// slice; callers treat that node as unsplittable.
std::vector<KdChildSlice> MultiSplit(
    const std::vector<const std::vector<double>*>& columns,
    std::vector<uint32_t>* permutation, size_t begin, size_t end,
    const Rect& parent_condition);

/// Median of column values over permutation[begin, end) (lower median).
double SliceMedian(const std::vector<double>& column,
                   const std::vector<uint32_t>& permutation, size_t begin,
                   size_t end);

/// Tight bounding box of the rows in the slice.
Rect SliceBounds(const std::vector<const std::vector<double>*>& columns,
                 const std::vector<uint32_t>& permutation, size_t begin,
                 size_t end);

}  // namespace pass

#endif  // PASS_GEOM_KD_SPLIT_H_
