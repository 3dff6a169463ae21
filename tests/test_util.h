#ifndef PASS_TESTS_TEST_UTIL_H_
#define PASS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/query.h"
#include "core/synopsis.h"
#include "partition/builder.h"
#include "storage/dataset.h"

namespace pass {
namespace testing {

/// Builds a synopsis or aborts the test binary on failure (test scaffolding
/// only; production callers handle the Result).
inline Synopsis MustBuild(const Dataset& data, BuildOptions options) {
  Result<Synopsis> result = BuildSynopsis(data, options);
  PASS_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

/// A 1-D query over dimension `dim` of a d-dimensional dataset.
inline Query RangeQueryOnDim(AggregateType agg, size_t num_dims, size_t dim,
                             double lo, double hi) {
  Query q;
  q.agg = agg;
  q.predicate = Rect::All(num_dims);
  q.predicate.dim(dim) = Interval{lo, hi};
  return q;
}

/// The IEEE-754 bit pattern of `v`: unlike ==, it tells +0.0 from -0.0
/// and finds two identical NaNs equal.
inline uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Asserts two QueryAnswers are bit-for-bit identical in every field —
/// the contract behind the K=1 sharding property and the sequential-vs-
/// parallel serving regressions. Doubles compare by bit pattern.
inline void ExpectAnswersBitIdentical(const QueryAnswer& a,
                                      const QueryAnswer& b) {
  EXPECT_EQ(Bits(a.estimate.value), Bits(b.estimate.value));
  EXPECT_EQ(Bits(a.estimate.variance), Bits(b.estimate.variance));
  EXPECT_EQ(a.hard_lb.has_value(), b.hard_lb.has_value());
  EXPECT_EQ(a.hard_ub.has_value(), b.hard_ub.has_value());
  if (a.hard_lb && b.hard_lb) {
    EXPECT_EQ(Bits(*a.hard_lb), Bits(*b.hard_lb));
  }
  if (a.hard_ub && b.hard_ub) {
    EXPECT_EQ(Bits(*a.hard_ub), Bits(*b.hard_ub));
  }
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.population_rows, b.population_rows);
  EXPECT_EQ(a.population_rows_skipped, b.population_rows_skipped);
  EXPECT_EQ(a.sample_rows_scanned, b.sample_rows_scanned);
  EXPECT_EQ(a.matched_sample_rows, b.matched_sample_rows);
  EXPECT_EQ(a.scan_units_planned, b.scan_units_planned);
  EXPECT_EQ(a.covered_nodes, b.covered_nodes);
  EXPECT_EQ(a.partial_leaves, b.partial_leaves);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
}

/// The same check as ExpectAnswersBitIdentical, returned instead of
/// asserted, for threads that tally mismatches.
inline bool AnswersBitIdentical(const QueryAnswer& a, const QueryAnswer& b) {
  const auto same_bound = [](const std::optional<double>& x,
                             const std::optional<double>& y) {
    return x.has_value() == y.has_value() && (!x || Bits(*x) == Bits(*y));
  };
  return Bits(a.estimate.value) == Bits(b.estimate.value) &&
         Bits(a.estimate.variance) == Bits(b.estimate.variance) &&
         same_bound(a.hard_lb, b.hard_lb) && same_bound(a.hard_ub, b.hard_ub) &&
         a.exact == b.exact && a.truncated == b.truncated &&
         a.population_rows == b.population_rows &&
         a.population_rows_skipped == b.population_rows_skipped &&
         a.sample_rows_scanned == b.sample_rows_scanned &&
         a.matched_sample_rows == b.matched_sample_rows &&
         a.scan_units_planned == b.scan_units_planned &&
         a.covered_nodes == b.covered_nodes &&
         a.partial_leaves == b.partial_leaves &&
         a.nodes_visited == b.nodes_visited;
}

}  // namespace testing
}  // namespace pass

#endif  // PASS_TESTS_TEST_UTIL_H_
