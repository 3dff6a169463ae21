#ifndef PASS_CORE_STRATIFIED_SAMPLE_H_
#define PASS_CORE_STRATIFIED_SAMPLE_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "geom/rect.h"

namespace pass {

class KernelCache;

/// The uniform sample attached to one leaf partition ("Associated with the
/// leaf nodes is a uniform sample of tuples within that partition",
/// Section 3.2). Stored column-major; scans over these samples are the only
/// per-query data access a PASS synopsis performs.
class StratifiedSample {
 public:
  explicit StratifiedSample(size_t num_dims) : preds_(num_dims) {}

  void Reserve(size_t n) {
    agg_.reserve(n);
    for (auto& col : preds_) col.reserve(n);
  }

  void AddRow(const std::vector<double>& preds, double agg) {
    PASS_DCHECK(preds.size() == preds_.size());
    for (size_t i = 0; i < preds.size(); ++i) preds_[i].push_back(preds[i]);
    agg_.push_back(agg);
  }

  /// Removes row i (swap-with-last; order is not meaningful for a uniform
  /// sample). Used by the dynamic-update path.
  void RemoveRow(size_t i) {
    PASS_DCHECK(i < agg_.size());
    const size_t last = agg_.size() - 1;
    agg_[i] = agg_[last];
    agg_.pop_back();
    for (auto& col : preds_) {
      col[i] = col[last];
      col.pop_back();
    }
  }

  size_t size() const { return agg_.size(); }
  size_t NumDims() const { return preds_.size(); }

  double agg(size_t i) const {
    PASS_DCHECK(i < agg_.size());
    return agg_[i];
  }
  double pred(size_t dim, size_t i) const {
    PASS_DCHECK(dim < preds_.size() && i < agg_.size());
    return preds_[dim][i];
  }

  /// Matched-tuple moments of one predicate scan: the (k, Σa, Σa²) triple
  /// every stratum estimator needs, plus min/max for MIN/MAX estimation.
  /// min/max ignore NaN aggregates (IEEE compare-select, matching the
  /// exact path); they are +inf/-inf if every matched aggregate is NaN.
  struct ScanResult {
    uint64_t matched = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    double min = 0.0;  // valid iff matched > 0
    double max = 0.0;  // valid iff matched > 0
  };

  /// Scans every dimension against the query. Semantics and bit-exact
  /// determinism are pinned by the shared kernel contract
  /// (kernel/scan_kernel.h): NaN values never match, -0.0 == 0.0, and the
  /// reduction order is fixed so scalar and SIMD builds agree bit-for-bit.
  /// A non-null `cache` counts which kernel tier served the scan
  /// (jit/kernel_cache.h).
  ScanResult Scan(const Rect& query, KernelCache* cache = nullptr) const;

  /// Scan with active-dim pruning: a dimension whose `leaf_box` interval
  /// (the leaf's tight data bounding box) is fully contained by the query
  /// interval is provably true for every sampled row and is skipped, so
  /// the inner loop tests only contested dimensions. Bit-identical to the
  /// unpruned Scan — dropping a provably-true dimension cannot change the
  /// match mask. Precondition: sampled predicate values lie inside
  /// `leaf_box` (the tree builder's invariant; NaN predicate values are
  /// outside it and unsupported by the builders).
  ScanResult Scan(const Rect& query, const Rect& leaf_box,
                  KernelCache* cache = nullptr) const;

  /// Process-wide count of Scan() invocations. Each thread bumps its own
  /// counter (no shared cache line on the hot scan loop); reads aggregate
  /// them. Lets tests assert that a query's reported work equals the
  /// scans actually performed.
  static uint64_t TotalScanCalls();

  /// Bytes of sample payload (rows actually stored). This is the
  /// storage-accounting quantity for BSS bounds — what a serialized
  /// synopsis would occupy — and what Synopsis::StorageBytes sums.
  size_t PayloadBytes() const {
    return (preds_.size() + 1) * agg_.size() * sizeof(double);
  }

  /// Bytes of sample storage actually allocated (vector capacity): the
  /// real in-memory footprint, which Reserve commits before rows arrive
  /// and swap-remove churn never shrinks. Always >= PayloadBytes().
  size_t SizeBytes() const {
    size_t reserved = agg_.capacity();
    for (const auto& col : preds_) reserved += col.capacity();
    return reserved * sizeof(double);
  }

 private:
  ScanResult ScanImpl(const Rect& query, const Rect* leaf_box,
                      KernelCache* cache) const;

  std::vector<std::vector<double>> preds_;  // [dim][i]
  std::vector<double> agg_;
};

}  // namespace pass

#endif  // PASS_CORE_STRATIFIED_SAMPLE_H_
