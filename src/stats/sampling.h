#ifndef PASS_STATS_SAMPLING_H_
#define PASS_STATS_SAMPLING_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace pass {

/// Draws k distinct indices uniformly from [0, n) using Floyd's algorithm
/// (O(k) expected time, no O(n) scratch). Result is sorted ascending.
/// If k >= n, returns all indices 0..n-1.
std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k, Rng* rng);

}  // namespace pass

#endif  // PASS_STATS_SAMPLING_H_
