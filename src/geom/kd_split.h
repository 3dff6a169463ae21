#ifndef PASS_GEOM_KD_SPLIT_H_
#define PASS_GEOM_KD_SPLIT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.h"

namespace pass {

/// Low-level kd-tree splitting mechanics shared by the KD-PASS builder and
/// the KD-US baseline (Section 4.4 / 5.4). The caller owns a row store; a
/// node is a contiguous range [begin, end) of it.
///
/// `MultiSplit` splits a range simultaneously on the median of *every*
/// split dimension ("we find the median of each attribute so the fan-out
/// factor is 2^d"), reordering the store in place so each child is again a
/// contiguous range.

/// Most dimensions `MultiSplit` splits on at once: one split buckets its
/// rows into 2^d orthants. `BuildSynopsis` rejects a wider build with a
/// Status before reaching the split.
inline constexpr size_t kMaxKdDims = 16;

/// The rows a kd build splits, in permutation order: every predicate
/// column, the aggregate and the row id. Position i of every array holds
/// the same row, so a tree node is one contiguous range of each array and
/// a split reads and moves rows without gathers.
struct KdRowStore {
  std::vector<std::vector<double>> pred;  // pred[dim][i]
  std::vector<double> agg;
  std::vector<uint32_t> ids;  // ids[i]: the dataset row at position i
};

/// One child produced by a split.
struct KdChildSlice {
  size_t begin = 0;  // range of the row store
  size_t end = 0;
  Rect condition;    // partitioning condition (sub-rectangle of the parent)
};

/// Splits rows [begin, end) of `rows` into up to 2^d non-empty children,
/// d = split_dims.size(), by the median of each split column over the
/// range: its value of rank (end - begin) / 2, counting from 0. A row goes
/// to the high side of a dimension iff its value is > that median.
/// Children are returned in "orthant" order (bit j set = high side of
/// split_dims[j]); empty orthants are omitted. `parent_condition` spans
/// every column of `rows`; a child's condition narrows it on the split dims
/// only. Degenerate dimensions (where all values equal the median) leave an
/// empty side, which is dropped. If no split separates anything, returns a
/// single child covering the input range, which is left as it was; callers
/// treat that node as unsplittable.
///
/// The reorder is a stable counting sort on the orthant: every array of
/// the store moves together, and within each child the rows keep their
/// order from the parent range (leaf sampling draws by offset into a
/// range, so this order is part of the build's output).
std::vector<KdChildSlice> MultiSplit(const std::vector<size_t>& split_dims,
                                     size_t begin, size_t end,
                                     const Rect& parent_condition,
                                     KdRowStore* rows);

}  // namespace pass

#endif  // PASS_GEOM_KD_SPLIT_H_
