#ifndef PASS_KERNEL_SCAN_KERNEL_H_
#define PASS_KERNEL_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace pass {

/// The one leaf-scan kernel shared by every hot scan path (stratified leaf
/// samples in the estimator, full-column scans in the exact engine). Scans
/// column-major data: for each row, a conjunction of per-dimension interval
/// tests decides membership, and matched rows contribute to
/// count/sum/sum_sq/min/max.
///
/// ## Dispatch
///
/// ScanColumns is the one entry point. A scan over 1 to kMaxFixedDims
/// contested dimensions runs an instantiation with the dim count fixed at
/// compile time (the per-row dim loop unrolls and the bounds stay in
/// registers); any other count runs the runtime-dim loop. All of them are
/// one body template, so they share the accumulate and fold below and
/// differ only in how the match mask is built.
///
/// ## Predicate semantics (pinned; see test_scan_kernel.cc)
///
/// A row matches dimension k iff `values[i] >= lo && values[i] <= hi`,
/// evaluated branchlessly:
///  - A NaN data value never matches (both comparisons are false), exactly
///    as in the old branchy loop — but without the short-circuit exit, so
///    the masked SIMD path cannot diverge from the scalar path.
///  - A NaN bound (lo or hi) matches nothing.
///  - -0.0 == 0.0 per IEEE-754: a -0.0 value matches [0, 0] and vice versa.
///
/// ## Aggregate semantics
///
/// Matched rows contribute agg to sum, agg*agg to sum_sq and compete for
/// min/max via IEEE compare-selects. A NaN aggregate on a matched row
/// counts toward `matched`, poisons sum/sum_sq (NaN propagates through
/// addition) and is ignored by min/max (NaN loses every compare-select);
/// if *every* matched aggregate is NaN, min stays +inf and max stays -inf.
/// A poisoned sum/sum_sq is returned as the canonical positive quiet NaN:
/// when both operands of an add are NaN, hardware keeps whichever one the
/// (commutative, operand-order-free) instruction selection made the first
/// source, so the surviving NaN's sign/payload is the one thing source
/// order cannot fix — the kernel pins it at the boundary instead.
///
/// ## Determinism contract
///
/// Every instantiation and the reference kernel reduce into kScanLanes
/// accumulator stripes — row i lands in stripe i % kScanLanes, every row
/// adds `matched ? agg : 0.0` to its stripe — and the stripes combine
/// left-to-right in index order. The mask is integer-exact, so building it
/// per dim or per row cannot change it; the floating-point operation
/// sequence is fixed in source, so with IEEE arithmetic (no -ffast-math;
/// the kernel TU is compiled with -ffp-contract=off) the fixed and
/// runtime-dim instantiations, the vectorized build, the scalar fallback
/// build (-DPASS_SIMD=OFF) and the reference kernel below are bit-identical
/// to each other and across ISAs (NaN results canonicalized as above). This
/// is what preserves the resume/cache bit-identity contracts:
/// `#pragma omp simd` only annotates independent-lane loops, never a
/// float reduction the compiler could reassociate.
struct ScanStats {
  uint64_t matched = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  /// +inf / -inf when no matched row had a non-NaN aggregate.
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// One contested dimension of a scan: a contiguous column of n predicate
/// values and the query interval it must fall in. Dimensions whose leaf
/// bounding box is fully contained by the query are provably true and
/// should simply not be passed (active-dim pruning) — dropping a
/// provably-true dimension never changes the match mask, so pruned and
/// unpruned scans are bit-identical.
struct ScanDim {
  const double* values = nullptr;
  double lo = 0.0;
  double hi = 0.0;
};

/// Number of accumulator stripes in the deterministic reduction. Public
/// because it is part of the bit-identity contract, not a tuning knob.
inline constexpr size_t kScanLanes = 8;

/// Largest contested-dim count with a compile-time instantiation. The PASS
/// workloads' hot queries contest 1–4 dims; past that the per-block
/// descriptor loop the fixed kernels remove is already noise.
inline constexpr size_t kMaxFixedDims = 4;

/// Which fields of ScanStats a scan must produce. The estimator always
/// needs kFull (observed min/max feed the deterministic hard bounds); the
/// exact engine's SUM/COUNT/AVG scans never read the extrema, so kMoments
/// skips the two compare-selects per row and leaves min/max at +inf/-inf.
/// The moments are bit-identical under either shape.
enum class AggShape : uint8_t {
  kFull = 0,     // matched, sum, sum_sq, min, max
  kMoments = 1,  // matched, sum, sum_sq; min/max stay +inf/-inf
};

/// Scans n rows of `agg` against `num_dims` contested dimensions.
/// num_dims == 0 (every dimension pruned or a 0-d query) matches all rows.
/// Builds an integer match mask with branch-free compares, then selects each
/// row's contribution by AND/OR-ing the widened mask into the aggregate's
/// bits, so no data-dependent branch remains and -DPASS_SIMD=ON (the
/// default) vectorizes the accumulate's lane loop under GCC;
/// tools/lint/check_kernel_vectorized.py fails CI when it stops doing so.
/// Dispatches on num_dims as described above.
ScanStats ScanColumns(const double* agg, size_t n, const ScanDim* dims,
                      size_t num_dims, AggShape shape = AggShape::kFull);

/// The runtime-dim instantiation ScanColumns runs for 0 or more than
/// kMaxFixedDims dims, callable at any dim count. Public only so the fuzz
/// suite and bench_micro can compare the fixed instantiations against it.
ScanStats ScanColumnsGeneric(const double* agg, size_t n, const ScanDim* dims,
                             size_t num_dims,
                             AggShape shape = AggShape::kFull);

/// Reference implementation: the plain branchy row-at-a-time loop the
/// kernel replaced, written independently against the contract above.
/// Always compiled, never vectorized; the fuzz suite holds ScanColumns to
/// bit-identity with it.
ScanStats ScanColumnsScalarRef(const double* agg, size_t n,
                               const ScanDim* dims, size_t num_dims);

/// True when this build compiled ScanColumns with vectorization pragmas
/// (-DPASS_SIMD=ON).
bool ScanKernelVectorized();

}  // namespace pass

#endif  // PASS_KERNEL_SCAN_KERNEL_H_
