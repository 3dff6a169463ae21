#ifndef PASS_PARTITION_PARTITIONER_1D_H_
#define PASS_PARTITION_PARTITIONER_1D_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "partition/max_variance.h"
#include "partition/variance.h"

namespace pass {

/// The M(.) oracle signature: maximum (possibly approximate) query variance
/// inside a candidate partition given as a half-open index range of the
/// sorted optimization sample.
using MaxVarOracle =
    std::function<MaxVarQuery(size_t p_begin, size_t p_end)>;

/// Output of a 1-D partitioning algorithm: ascending cut positions
/// 0 = b_0 <= b_1 <= ... <= b_B = m over the sorted sample (at most k
/// partitions; equal consecutive cuts are collapsed by the callers), plus
/// the achieved objective value max_i M(b_i, b_{i+1}).
struct DpResult {
  std::vector<size_t> boundaries;
  double objective = 0.0;
};

/// Equal-depth cuts: partition i gets indices [i*n/k, (i+1)*n/k). This is
/// both the EQ baseline of Section 5.3 and the provably optimal COUNT
/// partitioning (Lemma A.1).
std::vector<size_t> EqualDepthBoundaries(size_t n, size_t k);

/// Maps cut positions found on a sorted optimization sample back to the
/// full dataset sorted by `perm`: the cut after sample index c-1 becomes
/// "every row with predicate value <= sample_pred[c-1] goes left". Returns
/// ascending, distinct positions from 0 to perm.size(). The 1-D builder and
/// AQP++ both place their cuts this way.
std::vector<size_t> MapSampleCutsToData(
    const std::vector<size_t>& sample_cuts,
    const std::vector<double>& sample_pred, const std::vector<double>& col,
    const std::vector<uint32_t>& perm);

/// The exact dynamic program of Section 4.3 ("strawman"): enumerates every
/// sub-query through ExactMaxVariance. O(k m^4) — small inputs only; used
/// as the ground truth in tests.
DpResult NaiveDpPartition1D(const SampleVariance& var, AggregateType agg,
                            size_t m, size_t k, size_t min_query);

/// The monotone dynamic program (Section 4.3 "Faster Algorithm With
/// Monotonicity" + Appendix A.5): A[i][j] = min_h max(A[h][j-1],
/// M(h, i)), with the inner min found by binary search thanks to the
/// monotonicity of both arms. O(k·m·log m) oracle calls. Plugging in the
/// discretized oracles of max_variance.h yields the paper's `**` ADP
/// algorithm; plugging in ExactMaxVariance yields the exact faster DP.
DpResult DpPartition1D(size_t m, size_t k, const MaxVarOracle& oracle);

}  // namespace pass

#endif  // PASS_PARTITION_PARTITIONER_1D_H_
