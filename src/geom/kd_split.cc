#include "geom/kd_split.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/macros.h"

namespace pass {
namespace {

/// Ranges shorter than this take their median from a full copy. The copy
/// then fits in cache, and the sample, the pivots and the bucket cost about
/// as much as they save: the two broke even between 5k and 7k rows on a
/// 2 GHz x86-64 host.
constexpr size_t kSampledMedianMinRows = 8192;

/// Values the counting pass reads between two checks of the bucket's size.
constexpr size_t kBucketBlock = 1024;

/// The value of rank n / 2 among range[0, n), by sampled-pivot selection
/// (Floyd–Rivest): pivots lo <= hi taken a few standard deviations around
/// that rank from a strided sample of about n^(2/3) values, one pass that
/// counts the values below, at and above each pivot and gathers those
/// strictly between into `scratch`, then std::nth_element on that bucket
/// alone. A rank that falls on a pivot's ties needs no bucket, so tied
/// columns, where a kd split often leaves the median at the edge of a
/// block of equal values, take this path too.
///
/// Returns nullopt when it cannot vouch that the bits equal
/// std::nth_element's over the whole range: the rank lies below lo or
/// above hi, the bucket outgrows its capacity, a NaN is present (NaN
/// breaks the order nth_element relies on), or the value is a zero, whose
/// sign nth_element picks by where each zero sits in the range. Every
/// other value is the one member of its equivalence class under `<`.
std::optional<double> SampledMedian(const double* range, size_t n,
                                    std::vector<double>* scratch) {
  const size_t k = n / 2;
  const double nd = static_cast<double>(n);
  const size_t s = static_cast<size_t>(std::cbrt(nd * nd));
  const size_t stride = n / s;
  std::vector<double>& buf = *scratch;
  buf.resize(s);
  for (size_t i = 0; i < s; ++i) {
    const double x = range[i * stride + stride / 2];
    if (std::isnan(x)) return std::nullopt;
    buf[i] = x;
  }
  // The target's sample rank, widened by about sqrt(s ln n) / 2: several
  // standard deviations of where a random sample puts it.
  const size_t r = k * s / n;
  const size_t gap = static_cast<size_t>(
      std::ceil(0.5 * std::sqrt(static_cast<double>(s) * std::log(nd))));
  const size_t lo_rank = r > gap ? r - gap : 0;
  const size_t hi_rank = std::min(s - 1, r + gap);
  const auto sample_hi = buf.begin() + static_cast<long>(hi_rank);
  std::nth_element(buf.begin(), sample_hi, buf.end());
  const double hi = *sample_hi;
  const auto sample_lo = buf.begin() + static_cast<long>(lo_rank);
  std::nth_element(buf.begin(), sample_lo, sample_hi);
  const double lo = *sample_lo;

  // The sample is spent; `buf` now gathers the bucket, up to twice the
  // size the sample predicts. A block starts only while the bucket is
  // within that capacity, so its unconditional writes stay in the buffer.
  const size_t capacity = 2 * (hi_rank - lo_rank + 1) * stride;
  buf.resize(capacity + kBucketBlock);
  double* const out = buf.data();
  size_t below_lo = 0;    // x < lo
  size_t at_most_lo = 0;  // x <= lo
  size_t above_hi = 0;    // x > hi
  size_t m = 0;  // lo < x < hi, and NaN, which compares false every way
  for (size_t b = 0; b < n; b += kBucketBlock) {
    if (m > capacity) return std::nullopt;
    const size_t e = std::min(n, b + kBucketBlock);
    for (size_t i = b; i < e; ++i) {
      const double x = range[i];
      const size_t low = static_cast<size_t>(x <= lo);
      below_lo += static_cast<size_t>(x < lo);
      at_most_lo += low;
      above_hi += static_cast<size_t>(x > hi);
      out[m] = x;
      m += 1 - (low | static_cast<size_t>(x >= hi));
    }
  }
  if (std::any_of(out, out + m, [](double x) { return std::isnan(x); })) {
    return std::nullopt;
  }
  // Sorted, the range reads: values < lo, lo's ties, the bucket, hi's
  // ties, values > hi. With lo == hi the bucket is empty and both ties
  // are the same values.
  if (k < below_lo || k >= n - above_hi) return std::nullopt;
  double kth = hi;
  if (k < at_most_lo) {
    kth = lo;
  } else if (k < at_most_lo + m) {
    double* const it = out + (k - at_most_lo);
    std::nth_element(out, it, out + m);
    kth = *it;
  }
  if (kth == 0.0) return std::nullopt;
  return kth;
}

/// Value of rank (end - begin) / 2 among values[begin, end): the value
/// std::nth_element finds on a contiguous copy, bit for bit. Long ranges
/// try SampledMedian first and fall back to that copy.
double RangeMedian(const std::vector<double>& values, size_t begin, size_t end,
                   std::vector<double>* scratch) {
  const size_t n = end - begin;
  if (n >= kSampledMedianMinRows) {
    if (const std::optional<double> median =
            SampledMedian(values.data() + begin, n, scratch)) {
      return *median;
    }
  }
  scratch->assign(values.begin() + static_cast<long>(begin),
                  values.begin() + static_cast<long>(end));
  const auto mid = scratch->begin() + static_cast<long>(n / 2);
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
