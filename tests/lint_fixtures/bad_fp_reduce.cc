// Lint fixture: violates fp-accumulation (and ONLY that rule).
//
// Deliberately broken: the C++17 reducer family (std::reduce,
// std::transform_reduce) plus a strided raw double-pointer fold — the
// shapes a specialized-kernel PR is most tempted to hand-roll. The
// fp-accumulation rule exempts only src/kernel/ (the one home of the
// deterministic scan kernel); this file lives outside it, so every
// reduction below must be flagged. Not compiled into any target —
// tools/lint's self-test asserts check_invariants.py flags it.

#include <cstddef>
#include <numeric>
#include <vector>

namespace pass {

double SumWithReduce(const std::vector<double>& column) {
  // BAD: std::reduce may reassociate; order is unspecified.
  return std::reduce(column.begin(), column.end(), 0.0);
}

double DotWithTransformReduce(const std::vector<double>& a,
                              const std::vector<double>& b) {
  // BAD: std::transform_reduce outside the kernel allowlist.
  return std::transform_reduce(a.begin(), a.end(), b.begin(), 0.0);
}

double StridedSum(const double* rows, size_t n, size_t stride) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += rows[i * stride];  // BAD: raw double-pointer accumulation.
  }
  return total;
}

}  // namespace pass
