#include "partition/partitioner_1d.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace pass {

std::vector<size_t> EqualDepthBoundaries(size_t n, size_t k) {
  PASS_CHECK(k >= 1);
  std::vector<size_t> cuts;
  cuts.reserve(k + 1);
  for (size_t i = 0; i <= k; ++i) {
    cuts.push_back(i * n / k);
  }
  cuts.front() = 0;
  cuts.back() = n;
  return cuts;
}

std::vector<size_t> MapSampleCutsToData(
    const std::vector<size_t>& sample_cuts,
    const std::vector<double>& sample_pred, const std::vector<double>& col,
    const std::vector<uint32_t>& perm) {
  const size_t n = perm.size();
  std::vector<size_t> cuts;
  cuts.push_back(0);
  for (size_t ci = 1; ci + 1 < sample_cuts.size(); ++ci) {
    const size_t c = sample_cuts[ci];
    if (c == 0 || c >= sample_pred.size()) continue;
    const double threshold = sample_pred[c - 1];
    // First position in the sorted permutation with value > threshold.
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (col[perm[mid]] <= threshold) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    cuts.push_back(lo);
  }
  cuts.push_back(n);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

DpResult NaiveDpPartition1D(const SampleVariance& var, AggregateType agg,
                            size_t m, size_t k, size_t min_query) {
  PASS_CHECK(k >= 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Lazily memoized exact oracle.
  std::vector<double> memo((m + 1) * (m + 1),
                           -std::numeric_limits<double>::infinity());
  auto oracle = [&](size_t b, size_t e) -> double {
    double& slot = memo[b * (m + 1) + e];
    if (slot < 0.0) {
      slot = ExactMaxVariance(var, agg, b, e, min_query).variance;
    }
    return slot;
  };

  // A[i][j]: optimal objective over the first i samples with <= j parts.
  std::vector<double> prev(m + 1, kInf);
  std::vector<double> cur(m + 1, kInf);
  std::vector<std::vector<size_t>> choice(
      k + 1, std::vector<size_t>(m + 1, 0));
  prev[0] = 0.0;
  for (size_t i = 1; i <= m; ++i) prev[i] = oracle(0, i);  // j = 1
  for (size_t i = 0; i <= m; ++i) choice[1][i] = 0;

  for (size_t j = 2; j <= k; ++j) {
    cur[0] = 0.0;
    for (size_t i = 1; i <= m; ++i) {
      double best = prev[i];  // reuse the <= j-1 solution (empty last part)
      size_t best_h = i;
      for (size_t h = 0; h < i; ++h) {
        const double cand = std::max(prev[h], oracle(h, i));
        if (cand < best) {
          best = cand;
          best_h = h;
        }
      }
      cur[i] = best;
      choice[j][i] = best_h;
    }
    std::swap(prev, cur);
  }

  DpResult out;
  out.objective = prev[m];
  // Reconstruct partition start points from the choice table.
  std::vector<size_t> rev;
  size_t i = m;
  for (size_t j = k; j >= 2 && i > 0; --j) {
    const size_t h = choice[j][i];
    if (h < i) rev.push_back(h);
    i = h;
  }
  out.boundaries.push_back(0);
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    if (*it != 0) out.boundaries.push_back(*it);
  }
  out.boundaries.push_back(m);
  out.boundaries.erase(
      std::unique(out.boundaries.begin(), out.boundaries.end()),
      out.boundaries.end());
  return out;
}

DpResult DpPartition1D(size_t m, size_t k, const MaxVarOracle& oracle) {
  PASS_CHECK(k >= 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  auto m_val = [&](size_t b, size_t e) -> double {
    return b >= e ? 0.0 : oracle(b, e).variance;
  };

  std::vector<double> prev(m + 1, kInf);
  std::vector<double> cur(m + 1, kInf);
  // choice[j][i] = left endpoint of the j-th partition in the optimal
  // solution over the first i samples.
  std::vector<std::vector<uint32_t>> choice(
      k + 1, std::vector<uint32_t>(m + 1, 0));

  prev[0] = 0.0;
  for (size_t i = 1; i <= m; ++i) prev[i] = m_val(0, i);

  for (size_t j = 2; j <= k; ++j) {
    cur[0] = 0.0;
    for (size_t i = 1; i <= m; ++i) {
      // f(h) = prev[h] is non-decreasing in h; g(h) = M(h, i) is
      // non-increasing (adding irrelevant data only grows the variance,
      // Section 4.3). Binary search for the crossing, then probe a small
      // neighborhood to absorb approximation noise in g.
      size_t lo = 0;
      size_t hi = i;  // h == i means the last partition is empty
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (prev[mid] >= m_val(mid, i)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      double best = kInf;
      size_t best_h = 0;
      const size_t probe_lo = lo >= 2 ? lo - 2 : 0;
      const size_t probe_hi = std::min(i, lo + 2);
      for (size_t h = probe_lo; h <= probe_hi; ++h) {
        const double cand = std::max(prev[h], m_val(h, i));
        if (cand < best) {
          best = cand;
          best_h = h;
        }
      }
      cur[i] = best;
      choice[j][i] = static_cast<uint32_t>(best_h);
    }
    std::swap(prev, cur);
  }

  DpResult out;
  out.objective = prev[m];
  std::vector<size_t> rev;
  size_t i = m;
  for (size_t j = k; j >= 2 && i > 0; --j) {
    const size_t h = choice[j][i];
    if (h < i) rev.push_back(h);
    i = h;
  }
  out.boundaries.push_back(0);
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    if (*it != 0) out.boundaries.push_back(*it);
  }
  out.boundaries.push_back(m);
  // Collapse duplicates (empty partitions are legal DP states).
  out.boundaries.erase(
      std::unique(out.boundaries.begin(), out.boundaries.end()),
      out.boundaries.end());
  return out;
}

}  // namespace pass
