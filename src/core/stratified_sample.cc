#include "core/stratified_sample.h"

#include <vector>

#include "jit/kernel_cache.h"
#include "kernel/scan_kernel.h"

namespace pass {

StratifiedSample::ScanResult StratifiedSample::Scan(const Rect& query,
                                                    KernelCache* cache) const {
  return ScanImpl(query, nullptr, cache);
}

StratifiedSample::ScanResult StratifiedSample::Scan(
    const Rect& query, const Rect& leaf_box, KernelCache* cache) const {
  PASS_DCHECK(leaf_box.NumDims() == preds_.size());
  return ScanImpl(query, &leaf_box, cache);
}

StratifiedSample::ScanResult StratifiedSample::ScanImpl(
    const Rect& query, const Rect* leaf_box, KernelCache* cache) const {
  PASS_DCHECK(query.NumDims() == preds_.size());
  const size_t d = preds_.size();

  // Contested dimensions only: a dim whose leaf box the query fully
  // contains holds for every sampled row, so skipping it leaves the match
  // mask (and therefore the result bits) unchanged. Stack storage for the
  // common arities keeps the hot path allocation-free.
  constexpr size_t kInlineDims = 16;
  ScanDim inline_dims[kInlineDims];
  std::vector<ScanDim> heap_dims;
  ScanDim* dims = inline_dims;
  if (d > kInlineDims) {
    heap_dims.resize(d);
    dims = heap_dims.data();
  }
  size_t contested = 0;
  for (size_t k = 0; k < d; ++k) {
    const Interval& q = query.dim(k);
    if (leaf_box != nullptr && q.ContainsInterval(leaf_box->dim(k))) continue;
    dims[contested++] = ScanDim{preds_[k].data(), q.lo, q.hi};
  }

  // Estimator scans always want the full shape: the observed extrema feed
  // FrontierStats and the deterministic hard bounds downstream.
  if (cache != nullptr) cache->Record(contested);
  const ScanStats s = ScanColumns(agg_.data(), agg_.size(), dims, contested);
  ScanResult out;
  out.matched = s.matched;
  out.sum = s.sum;
  out.sum_sq = s.sum_sq;
  if (s.matched > 0) {
    out.min = s.min;
    out.max = s.max;
  }
  return out;
}

}  // namespace pass
