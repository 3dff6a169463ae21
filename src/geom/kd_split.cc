#include "geom/kd_split.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace pass {

double SliceMedian(const std::vector<double>& column,
                   const std::vector<uint32_t>& permutation, size_t begin,
                   size_t end) {
  PASS_CHECK(begin < end && end <= permutation.size());
  std::vector<double> vals;
  vals.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) vals.push_back(column[permutation[i]]);
  const size_t mid = vals.size() / 2;
  std::nth_element(vals.begin(), vals.begin() + static_cast<long>(mid),
                   vals.end());
  return vals[mid];
}

Rect SliceBounds(const std::vector<const std::vector<double>*>& columns,
                 const std::vector<uint32_t>& permutation, size_t begin,
                 size_t end) {
  Rect bounds(columns.size());
  for (size_t dim = 0; dim < columns.size(); ++dim) {
    const auto& col = *columns[dim];
    for (size_t i = begin; i < end; ++i) {
      bounds.dim(dim).Expand(col[permutation[i]]);
    }
  }
  return bounds;
}

std::vector<KdChildSlice> MultiSplit(
    const std::vector<const std::vector<double>*>& columns,
    std::vector<uint32_t>* permutation, size_t begin, size_t end,
    const Rect& parent_condition) {
  PASS_CHECK(permutation != nullptr);
  PASS_CHECK(begin < end && end <= permutation->size());
  const size_t d = columns.size();
  PASS_CHECK(d >= 1 && d <= kMaxKdDims);
  PASS_CHECK(parent_condition.NumDims() == d);

  // Per-dimension median thresholds. A row goes to the "low" side of
  // dimension j iff value <= median_j.
  std::vector<double> medians(d);
  for (size_t j = 0; j < d; ++j) {
    medians[j] = SliceMedian(*columns[j], *permutation, begin, end);
  }

  // Bucket rows by orthant id (bit j set = high side of dimension j).
  const size_t num_orthants = size_t{1} << d;
  std::vector<std::vector<uint32_t>> buckets(num_orthants);
  for (size_t i = begin; i < end; ++i) {
    const uint32_t row = (*permutation)[i];
    size_t code = 0;
    for (size_t j = 0; j < d; ++j) {
      if ((*columns[j])[row] > medians[j]) code |= size_t{1} << j;
    }
    buckets[code].push_back(row);
  }

  // Rewrite the permutation slice bucket-by-bucket and emit child slices.
  std::vector<KdChildSlice> children;
  size_t cursor = begin;
  for (size_t code = 0; code < num_orthants; ++code) {
    if (buckets[code].empty()) continue;
    KdChildSlice child;
    child.begin = cursor;
    for (const uint32_t row : buckets[code]) (*permutation)[cursor++] = row;
    child.end = cursor;
    child.condition = parent_condition;
    for (size_t j = 0; j < d; ++j) {
      Interval& iv = child.condition.dim(j);
      if (code & (size_t{1} << j)) {
        // High side: (median, hi]. Closed intervals on doubles: use the
        // smallest representable value above the median as the low edge.
        iv.lo = std::nextafter(medians[j],
                               std::numeric_limits<double>::infinity());
      } else {
        iv.hi = medians[j];
      }
    }
    children.push_back(std::move(child));
  }
  PASS_CHECK(cursor == end);
  return children;
}

}  // namespace pass
