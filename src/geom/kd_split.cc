#include "geom/kd_split.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace pass {
namespace {

/// Value of rank (end - begin) / 2 among values[begin, end), found by
/// std::nth_element on a contiguous copy in `scratch`.
double RangeMedian(const std::vector<double>& values, size_t begin, size_t end,
                   std::vector<double>* scratch) {
  scratch->assign(values.begin() + static_cast<long>(begin),
                  values.begin() + static_cast<long>(end));
  const auto mid = scratch->begin() + static_cast<long>(scratch->size() / 2);
  std::nth_element(scratch->begin(), mid, scratch->end());
  return *mid;
}

/// Moves the element at values[begin + i] to values[begin + dest[i]].
template <typename T>
void Scatter(const std::vector<uint32_t>& dest, size_t begin,
             std::vector<T>* values, std::vector<T>* scratch) {
  scratch->resize(dest.size());
  T* range = values->data() + begin;
  for (size_t i = 0; i < dest.size(); ++i) (*scratch)[dest[i]] = range[i];
  std::copy(scratch->begin(), scratch->end(), range);
}

}  // namespace

std::vector<KdChildSlice> MultiSplit(const std::vector<size_t>& split_dims,
                                     size_t begin, size_t end,
                                     const Rect& parent_condition,
                                     KdRowStore* rows) {
  PASS_CHECK(rows != nullptr);
  PASS_CHECK(begin < end && end <= rows->ids.size());
  const size_t d = split_dims.size();
  PASS_CHECK(d >= 1 && d <= kMaxKdDims);
  PASS_CHECK(parent_condition.NumDims() == rows->pred.size());
  for (const size_t dim : split_dims) PASS_CHECK(dim < rows->pred.size());
  const size_t n = end - begin;

  // Per-dimension median thresholds, then each row's orthant code (bit j
  // set = high side of split_dims[j]), one column pass per dimension.
  std::vector<double> scratch;
  std::vector<double> medians(d);
  std::vector<uint32_t> code(n, 0);
  for (size_t j = 0; j < d; ++j) {
    const std::vector<double>& col = rows->pred[split_dims[j]];
    medians[j] = RangeMedian(col, begin, end, &scratch);
    const double median = medians[j];
    for (size_t i = 0; i < n; ++i) {
      code[i] |= static_cast<uint32_t>(col[begin + i] > median) << j;
    }
  }

  // Orthant sizes, then each orthant's first position relative to begin.
  const size_t num_orthants = size_t{1} << d;
  std::vector<size_t> next(num_orthants + 1, 0);
  for (const uint32_t c : code) ++next[c + 1];

  std::vector<KdChildSlice> children;
  for (size_t c = 0; c < num_orthants; ++c) {
    if (next[c + 1] != 0) {
      KdChildSlice child;
      child.begin = begin + next[c];
      child.end = child.begin + next[c + 1];
      child.condition = parent_condition;
      for (size_t j = 0; j < d; ++j) {
        Interval& iv = child.condition.dim(split_dims[j]);
        if (c & (size_t{1} << j)) {
          // High side: (median, hi]. Closed intervals on doubles: use the
          // smallest representable value above the median as the low
          // edge.
          iv.lo = std::nextafter(medians[j],
                                 std::numeric_limits<double>::infinity());
        } else {
          iv.hi = medians[j];
        }
      }
      children.push_back(std::move(child));
    }
    next[c + 1] += next[c];
  }
  PASS_CHECK(next[num_orthants] == n);
  if (children.size() == 1) return children;  // nothing moves

  // Stable counting-sort scatter: a row's destination is the next free
  // position of its orthant, taken in parent order. Every array moves by
  // the same destinations, so rows stay whole.
  std::vector<uint32_t>& dest = code;
  for (uint32_t& c : dest) c = static_cast<uint32_t>(next[c]++);
  for (std::vector<double>& col : rows->pred) {
    Scatter(dest, begin, &col, &scratch);
  }
  Scatter(dest, begin, &rows->agg, &scratch);
  std::vector<uint32_t> id_scratch;
  Scatter(dest, begin, &rows->ids, &id_scratch);
  return children;
}

}  // namespace pass
