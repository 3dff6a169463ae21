#include "baselines/stratified_sampling.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "partition/hierarchy.h"
#include "partition/partitioner_1d.h"
#include "stats/sampling.h"

namespace pass {

StratifiedSamplingSystem::StratifiedSamplingSystem(const Dataset& data,
                                                   size_t strata, double rate,
                                                   size_t dim, uint64_t seed,
                                                   EstimatorOptions options)
    : population_rows_(data.NumRows()), options_(options) {
  Stopwatch timer;
  PASS_CHECK(strata >= 1);
  const size_t n = data.NumRows();
  const size_t d = data.NumPredDims();
  const std::vector<uint32_t> perm = data.SortedPermutation(dim);
  const auto& col = data.pred_column(dim);

  std::vector<size_t> cuts;
  for (const size_t pos : EqualDepthBoundaries(n, strata)) {
    cuts.push_back(SnapToValueChange(col, perm, pos));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const size_t budget =
      static_cast<size_t>(std::llround(rate * static_cast<double>(n)));
  const size_t num_strata = cuts.size() - 1;
  const size_t per_stratum =
      std::max<size_t>(1, (budget + num_strata - 1) / num_strata);

  Rng rng(seed);
  std::vector<double> preds(d);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    Stratum stratum(d);
    const RowSlice slice{cuts[i], cuts[i + 1]};
    stratum.rows = slice.second - slice.first;
    stratum.bounds = ComputeSliceBounds(data, perm, slice);
    const size_t target =
        std::min<size_t>(per_stratum, slice.second - slice.first);
    stratum.sample.Reserve(target);
    for (const size_t offset :
         SampleWithoutReplacement(slice.second - slice.first, target, &rng)) {
      const uint32_t row = perm[slice.first + offset];
      for (size_t dd = 0; dd < d; ++dd) preds[dd] = data.pred(dd, row);
      stratum.sample.AddRow(preds, data.agg(row));
    }
    strata_.push_back(std::move(stratum));
  }
  build_seconds_ = timer.ElapsedSeconds();
}

QueryAnswer StratifiedSamplingSystem::AnswerImpl(
    const Query& query, const AnswerOptions& options) const {
  (void)options;  // no anytime path: answers in full
  QueryAnswer out;
  out.population_rows = population_rows_;

  // Every stratum the query's box touches is scanned; there is no exact
  // part, since even a fully covered stratum answers from its sample.
  std::vector<SampledStratum> hits;
  SumCountAccumulator acc(AggregateStats{}, options_.use_fpc);
  uint64_t touched_rows = 0;
  for (const Stratum& s : strata_) {
    if (!query.predicate.Intersects(s.bounds)) continue;
    SampledStratum hit;
    hit.n_pop = static_cast<double>(s.rows);
    hit.k_samp = static_cast<double>(s.sample.size());
    hit.scan = s.sample.Scan(query.predicate, options_.kernel_cache.get());
    acc.AddSampled(hit);
    out.sample_rows_scanned += s.sample.size();
    out.matched_sample_rows += hit.scan.matched;
    touched_rows += s.rows;
    hits.push_back(hit);
  }
  out.population_rows_skipped = population_rows_ - touched_rows;

  switch (query.agg) {
    case AggregateType::kSum:
      out.estimate = acc.sum();
      break;
    case AggregateType::kCount:
      out.estimate = acc.count();
      break;
    case AggregateType::kAvg:
      // With no matched sample row either estimator reads 0.
      if (options_.avg_mode == AvgMode::kRatio) {
        out.estimate = RatioEstimate(acc.sum(), acc.count(),
                                     acc.sum_count_cov(), Estimate{});
      } else {
        out.estimate = PaperWeightsAvg(AggregateStats{}, hits, options_.use_fpc,
                                       Estimate{});
      }
      break;
    case AggregateType::kMin:
    case AggregateType::kMax: {
      const bool is_min = query.agg == AggregateType::kMin;
      bool seen = false;
      double best = 0.0;
      for (const SampledStratum& h : hits) {
        if (h.scan.matched == 0) continue;
        const double v = is_min ? h.scan.min : h.scan.max;
        if (!seen) {
          best = v;
          seen = true;
        } else {
          best = is_min ? std::min(best, v) : std::max(best, v);
        }
      }
      out.estimate.value = seen ? best : 0.0;
      break;
    }
  }
  return out;
}

SystemCosts StratifiedSamplingSystem::Costs() const {
  SystemCosts c;
  c.build_seconds = build_seconds_;
  for (const Stratum& s : strata_) {
    c.storage_bytes += s.sample.PayloadBytes();
    c.resident_bytes += s.sample.SizeBytes();
  }
  const uint64_t meta =
      strata_.size() * (sizeof(uint64_t) + 2 * sizeof(double));
  c.storage_bytes += meta;
  c.resident_bytes += meta;
  return c;
}

}  // namespace pass
