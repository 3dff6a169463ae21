#include "baselines/uniform_sampling.h"

#include <cmath>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "stats/sampling.h"

namespace pass {

UniformSamplingSystem::UniformSamplingSystem(const Dataset& data, double rate,
                                             uint64_t seed,
                                             EstimatorOptions options)
    : sample_(data.NumPredDims()),
      population_rows_(data.NumRows()),
      options_(options) {
  Stopwatch timer;
  PASS_CHECK(rate >= 0.0 && rate <= 1.0);
  Rng rng(seed);
  const size_t n = data.NumRows();
  const size_t k = static_cast<size_t>(
      std::llround(rate * static_cast<double>(n)));
  sample_.Reserve(k);
  std::vector<double> preds(data.NumPredDims());
  for (const size_t row : SampleWithoutReplacement(n, k, &rng)) {
    for (size_t dim = 0; dim < preds.size(); ++dim) {
      preds[dim] = data.pred(dim, row);
    }
    sample_.AddRow(preds, data.agg(row));
  }
  build_seconds_ = timer.ElapsedSeconds();
}

QueryAnswer UniformSamplingSystem::AnswerImpl(
    const Query& query, const AnswerOptions& options) const {
  (void)options;  // no anytime path: answers in full
  QueryAnswer out;
  out.population_rows = population_rows_;
  out.sample_rows_scanned = sample_.size();
  // The whole table is one stratum, with no exact part.
  SampledStratum table;
  table.n_pop = static_cast<double>(population_rows_);
  table.k_samp = static_cast<double>(sample_.size());
  table.scan = sample_.Scan(query.predicate, options_.kernel_cache.get());
  out.matched_sample_rows = table.scan.matched;
  SumCountAccumulator acc(AggregateStats{}, options_.use_fpc);
  acc.AddSampled(table);

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
        out.estimate = PaperWeightsAvg(AggregateStats{}, {table},
                                       options_.use_fpc, Estimate{});
      }
      break;
    case AggregateType::kMin:
      out.estimate.value = table.scan.matched > 0 ? table.scan.min : 0.0;
      break;
    case AggregateType::kMax:
      out.estimate.value = table.scan.matched > 0 ? table.scan.max : 0.0;
      break;
  }
  return out;
}

SystemCosts UniformSamplingSystem::Costs() const {
  SystemCosts c;
  c.build_seconds = build_seconds_;
  c.storage_bytes = sample_.PayloadBytes();
  c.resident_bytes = sample_.SizeBytes();
  return c;
}

UniformSamplingSystem MakeScramble(const Dataset& data, double ratio,
                                   uint64_t seed, EstimatorOptions options) {
  UniformSamplingSystem system(data, ratio, seed, options);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Scramble-%.0f%%", ratio * 100.0);
  system.set_name(buf);
  return system;
}

}  // namespace pass
