#ifndef PASS_SRC_JIT_KERNEL_CACHE_H_
#define PASS_SRC_JIT_KERNEL_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "kernel/scan_kernel.h"

namespace pass {

/// One snapshot of a KernelCache's cumulative counters. Cumulative rather
/// than per-query because concurrent queries share the counters;
/// sequential callers diff consecutive snapshots for per-query deltas.
struct KernelTierStats {
  uint64_t generic_scans = 0;  // runtime-dim loop: 0 or > kMaxFixedDims
  uint64_t fixed_scans = 0;    // fixed-dim instantiation: 1..kMaxFixedDims
  uint64_t jit_scans = 0;      // always 0; perfbench/src/layers.cc reads it
};

/// Per-engine counters of which ScanColumns instantiation served each leaf
/// or full-column scan (kernel/scan_kernel.h). The registry installs one on
/// every engine, shared by its shards and ensemble members; a synopsis
/// built directly has none and scans the same kernels uncounted. Counting
/// never changes what runs: dispatch happens inside ScanColumns.
///
/// Thread-safe: relaxed atomics, so Stats() is a monotone but not
/// mutually consistent snapshot under concurrent scans.
class KernelCache {
 public:
  /// Counts one scan over `num_dims` contested dimensions under the tier
  /// ScanColumns dispatches it to.
  void Record(size_t num_dims) {
    std::atomic<uint64_t>& counter =
        num_dims >= 1 && num_dims <= kMaxFixedDims ? fixed_scans_
                                                   : generic_scans_;
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  KernelTierStats Stats() const {
    KernelTierStats s;
    s.generic_scans = generic_scans_.load(std::memory_order_relaxed);
    s.fixed_scans = fixed_scans_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> generic_scans_{0};
  std::atomic<uint64_t> fixed_scans_{0};
};

}  // namespace pass

#endif  // PASS_SRC_JIT_KERNEL_CACHE_H_
