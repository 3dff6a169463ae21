#include "kernel/scan_kernel.h"

#include <algorithm>
#include <cstring>

namespace pass {
namespace {

// Rows per mask block. The match mask lives on the stack and is rebuilt
// per block, so the working set (mask + the block's slices of each column)
// stays cache-resident. Must be a multiple of kScanLanes so that a row's
// global stripe index (i % kScanLanes) equals its in-block index modulo
// kScanLanes — the tail loop of the final block relies on this.
constexpr size_t kBlockRows = 256;
static_assert(kBlockRows % kScanLanes == 0,
              "blocks must preserve the lane striping");

constexpr double kInf = std::numeric_limits<double>::infinity();

// When BOTH operands of an IEEE add are NaN, hardware returns whichever
// one the instruction encodes as its first source — and since C++
// addition is commutative, the compiler is free to swap operands, so no
// source ordering pins the surviving NaN's sign/payload (e.g. an input
// +NaN vs the -NaN that inf + -inf generates). The moments therefore
// leave the kernel with any NaN collapsed to the one canonical positive
// quiet NaN, which is what makes builds bit-identical across compilers
// and ISAs even on NaN-poisoned data.
double CanonicalNan(double x) {
  return x != x ? std::numeric_limits<double>::quiet_NaN() : x;
}

// C++17 has no std::bit_cast; memcpy is the defined way and compiles to a
// register move.
template <typename To, typename From>
To BitCast(From from) {
  static_assert(sizeof(To) == sizeof(From), "bit casts keep the size");
  To to{};
  std::memcpy(&to, &from, sizeof(to));
  return to;
}

// `m != 0 ? v : miss` for a 0/1 match mask m, as bit operations: the mask
// widens to all-ones or all-zeros and selects v's or miss's bit pattern.
// Written as `hit ? v : miss`, GCC 12 compiles the select into a
// data-dependent branch and leaves the accumulate loop scalar ("control
// flow in loop"). Either form yields exactly v or exactly miss, so the
// bits cannot differ from the reference kernel's.
double MaskSelect(uint32_t m, double v, double miss) {
  const uint64_t keep = uint64_t{0} - m;
  return BitCast<double>((BitCast<uint64_t>(v) & keep) |
                         (BitCast<uint64_t>(miss) & ~keep));
}

// Vectorization is annotation-only: PASS_SIMD_LOOP marks loops whose
// iterations are independent (per-element mask tests, per-stripe
// accumulates). It is never placed on a loop that carries a float
// dependence across iterations, so the compiler cannot reassociate any
// floating-point reduction and the PASS_SIMD=OFF build computes the exact
// same IEEE operation sequence. (The only reduction clause below is the
// integer match count, which is exact in any order.)
#if defined(PASS_SIMD)
#define PASS_SIMD_LOOP _Pragma("omp simd")
#define PASS_SIMD_COUNT(var) _Pragma(PASS_SIMD_STR(omp simd reduction(+ : var)))
#define PASS_SIMD_STR(x) #x
#else
#define PASS_SIMD_LOOP
#define PASS_SIMD_COUNT(var)
#endif

// Dim count of the runtime-dim instantiation: the mask is built from the
// `dims` descriptors one dimension per pass, for any num_dims.
constexpr size_t kRuntimeDims = 0;

// The one scan body. NDims in [1, kMaxFixedDims] fixes the contested-dim
// count at compile time and fuses each row's conjunction into one pass
// whose dim loop unrolls; kRuntimeDims reads num_dims and builds the mask
// with one blockwise pass per dim. The two only build the (integer-exact)
// mask differently; the accumulate and fold below are shared, which is
// what keeps every instantiation bit-identical.
template <size_t NDims, AggShape kShape>
ScanStats ScanBody(const double* agg, size_t n, const ScanDim* dims,
                   size_t num_dims) {
  constexpr bool kMinMax = kShape == AggShape::kFull;

  // Per-stripe accumulators as plain locals: stripe l owns rows congruent
  // to l mod kScanLanes, and the final combine folds stripes in index
  // order, which fixes the floating-point reduction tree in source.
  uint64_t matched = 0;
  double lane_sum[kScanLanes] = {};
  double lane_sum_sq[kScanLanes] = {};
  double lane_min[kScanLanes];
  double lane_max[kScanLanes];
  for (size_t l = 0; l < kScanLanes; ++l) {
    lane_min[l] = kInf;
    lane_max[l] = -kInf;
  }

  // uint32_t, not a byte mask: char arrays may legally alias the double
  // accumulators, which would force the compiler to re-read the mask
  // after every accumulator store and scalarize the loop.
  uint32_t mask[kBlockRows];
  for (size_t base = 0; base < n; base += kBlockRows) {
    const size_t len = std::min(kBlockRows, n - base);

    // Branchless interval tests: a NaN value (or a NaN bound) compares
    // false on both sides and never matches.
    if constexpr (NDims != kRuntimeDims) {
      // Column slices and bounds in locals, so they stay in registers.
      const double* cols[NDims];
      double lo[NDims];
      double hi[NDims];
      for (size_t k = 0; k < NDims; ++k) {
        cols[k] = dims[k].values + base;
        lo[k] = dims[k].lo;
        hi[k] = dims[k].hi;
      }
      PASS_SIMD_LOOP
      for (size_t jj = 0; jj < len; ++jj) {
        uint32_t m = 1;
        for (size_t k = 0; k < NDims; ++k) {
          m &= static_cast<uint32_t>(cols[k][jj] >= lo[k]) &
               static_cast<uint32_t>(cols[k][jj] <= hi[k]);
        }
        mask[jj] = m;
      }
    } else if (num_dims == 0) {
      for (size_t jj = 0; jj < len; ++jj) mask[jj] = 1;
    } else {
      {
        const double* col = dims[0].values + base;
        const double lo = dims[0].lo;
        const double hi = dims[0].hi;
        PASS_SIMD_LOOP
        for (size_t jj = 0; jj < len; ++jj) {
          mask[jj] = static_cast<uint32_t>(col[jj] >= lo) &
                     static_cast<uint32_t>(col[jj] <= hi);
        }
      }
      for (size_t k = 1; k < num_dims; ++k) {
        const double* col = dims[k].values + base;
        const double lo = dims[k].lo;
        const double hi = dims[k].hi;
        PASS_SIMD_LOOP
        for (size_t jj = 0; jj < len; ++jj) {
          mask[jj] &= static_cast<uint32_t>(col[jj] >= lo) &
                      static_cast<uint32_t>(col[jj] <= hi);
        }
      }
    }

    // The match count is an integer sum — exact in any order, so a plain
    // vector reduction is safe (and is the only reduction clause here).
    uint32_t block_matched = 0;
    PASS_SIMD_COUNT(block_matched)
    for (size_t jj = 0; jj < len; ++jj) block_matched += mask[jj];
    matched += block_matched;

    // Mask-selected accumulate, kScanLanes rows at a time; each group's
    // element l feeds stripe l. The final block's ragged tail continues
    // the same striping one row at a time (base is a multiple of
    // kBlockRows, hence of kScanLanes, so jj % kScanLanes is the row's
    // global stripe).
    const double* a = agg + base;
    size_t jj = 0;
    for (; jj + kScanLanes <= len; jj += kScanLanes) {
      PASS_SIMD_LOOP
      for (size_t l = 0; l < kScanLanes; ++l) {
        const double v = a[jj + l];
        const uint32_t m = mask[jj + l];
        const double sel = MaskSelect(m, v, 0.0);
        lane_sum[l] += sel;
        lane_sum_sq[l] += sel * sel;
        if constexpr (kMinMax) {
          const double cmin = MaskSelect(m, v, kInf);
          lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
          const double cmax = MaskSelect(m, v, -kInf);
          lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
        }
      }
    }
    for (; jj < len; ++jj) {
      const size_t l = jj % kScanLanes;
      const double v = a[jj];
      const uint32_t m = mask[jj];
      const double sel = MaskSelect(m, v, 0.0);
      lane_sum[l] += sel;
      lane_sum_sq[l] += sel * sel;
      if constexpr (kMinMax) {
        const double cmin = MaskSelect(m, v, kInf);
        lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
        const double cmax = MaskSelect(m, v, -kInf);
        lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
      }
    }
  }

  ScanStats out;
  out.matched = matched;
  for (size_t l = 0; l < kScanLanes; ++l) {
    out.sum += lane_sum[l];
    out.sum_sq += lane_sum_sq[l];
    if constexpr (kMinMax) {
      out.min = lane_min[l] < out.min ? lane_min[l] : out.min;
      out.max = lane_max[l] > out.max ? lane_max[l] : out.max;
    }
  }
  out.sum = CanonicalNan(out.sum);
  out.sum_sq = CanonicalNan(out.sum_sq);
  return out;
}

template <AggShape kShape>
ScanStats Dispatch(const double* agg, size_t n, const ScanDim* dims,
                   size_t num_dims) {
  static_assert(kMaxFixedDims == 4, "the switch covers exactly 1..4 dims");
  switch (num_dims) {
    case 1:
      return ScanBody<1, kShape>(agg, n, dims, num_dims);
    case 2:
      return ScanBody<2, kShape>(agg, n, dims, num_dims);
    case 3:
      return ScanBody<3, kShape>(agg, n, dims, num_dims);
    case 4:
      return ScanBody<4, kShape>(agg, n, dims, num_dims);
    default:
      return ScanBody<kRuntimeDims, kShape>(agg, n, dims, num_dims);
  }
}

}  // namespace

bool ScanKernelVectorized() {
#if defined(PASS_SIMD)
  return true;
#else
  return false;
#endif
}

ScanStats ScanColumns(const double* agg, size_t n, const ScanDim* dims,
                      size_t num_dims, AggShape shape) {
  return shape == AggShape::kFull
             ? Dispatch<AggShape::kFull>(agg, n, dims, num_dims)
             : Dispatch<AggShape::kMoments>(agg, n, dims, num_dims);
}

ScanStats ScanColumnsGeneric(const double* agg, size_t n, const ScanDim* dims,
                             size_t num_dims, AggShape shape) {
  return shape == AggShape::kFull
             ? ScanBody<kRuntimeDims, AggShape::kFull>(agg, n, dims, num_dims)
             : ScanBody<kRuntimeDims, AggShape::kMoments>(agg, n, dims,
                                                          num_dims);
}

ScanStats ScanColumnsScalarRef(const double* agg, size_t n,
                               const ScanDim* dims, size_t num_dims) {
  // Independently written against the header contract: the plain branchy
  // row-at-a-time loop the kernel replaced, with the same lane-striped
  // reduction order (every row contributes `hit ? agg : 0.0` to stripe
  // i % kScanLanes; stripes combine in index order).
  uint64_t matched = 0;
  double lane_sum[kScanLanes] = {};
  double lane_sum_sq[kScanLanes] = {};
  double lane_min[kScanLanes];
  double lane_max[kScanLanes];
  for (size_t l = 0; l < kScanLanes; ++l) {
    lane_min[l] = kInf;
    lane_max[l] = -kInf;
  }

  for (size_t i = 0; i < n; ++i) {
    bool hit = true;
    for (size_t k = 0; k < num_dims; ++k) {
      const double v = dims[k].values[i];
      if (!(v >= dims[k].lo) || !(v <= dims[k].hi)) {
        hit = false;
        break;
      }
    }
    const size_t l = i % kScanLanes;
    const double a = agg[i];
    const double sel = hit ? a : 0.0;
    matched += hit ? 1u : 0u;
    lane_sum[l] += sel;
    lane_sum_sq[l] += sel * sel;
    const double cmin = hit ? a : kInf;
    lane_min[l] = cmin < lane_min[l] ? cmin : lane_min[l];
    const double cmax = hit ? a : -kInf;
    lane_max[l] = cmax > lane_max[l] ? cmax : lane_max[l];
  }

  ScanStats out;
  out.matched = matched;
  for (size_t l = 0; l < kScanLanes; ++l) {
    out.sum += lane_sum[l];
    out.sum_sq += lane_sum_sq[l];
    out.min = lane_min[l] < out.min ? lane_min[l] : out.min;
    out.max = lane_max[l] > out.max ? lane_max[l] : out.max;
  }
  out.sum = CanonicalNan(out.sum);
  out.sum_sq = CanonicalNan(out.sum_sq);
  return out;
}

}  // namespace pass
