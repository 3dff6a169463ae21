#ifndef PASS_BASELINES_UNIFORM_SAMPLING_H_
#define PASS_BASELINES_UNIFORM_SAMPLING_H_

#include <string>

#include "core/aqp_system.h"
#include "core/estimator.h"
#include "core/stratified_sample.h"
#include "storage/dataset.h"

namespace pass {

/// The US baseline (Section 2.1 / 5.1.3): a single uniform sample of K
/// rows; every query is answered by re-weighting the sample with the phi
/// transformations. Also the implementation backbone of the VerdictDB-like
/// "scramble" baseline (a scramble is a stored uniform sample answered the
/// same way — see MakeScramble below).
class UniformSamplingSystem final : public AqpSystem {
 public:
  /// Samples floor(rate * N) rows (without replacement) from the dataset.
  UniformSamplingSystem(const Dataset& data, double rate, uint64_t seed,
                        EstimatorOptions options = {});

  std::string Name() const override { return name_; }
  SystemCosts Costs() const override;

  size_t sample_size() const { return sample_.size(); }
  void set_name(std::string name) { name_ = std::move(name); }
  const KernelCache* ScanKernelCache() const override {
    return options_.kernel_cache.get();
  }

 protected:
  /// Answers in full; this system has no anytime path, so the budget in
  /// `options` is ignored (SupportsBudget() stays false).
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;

 private:
  StratifiedSample sample_;
  uint64_t population_rows_;
  EstimatorOptions options_;
  std::string name_ = "US";
  double build_seconds_ = 0.0;
};

/// VerdictDB-like scramble: identical estimation machinery, but named and
/// accounted as a stored scramble table of the given ratio (Table 2's
/// VerdictDB-10% / VerdictDB-100% rows). README.md ("Substitutions")
/// gives the substitution rationale.
UniformSamplingSystem MakeScramble(const Dataset& data, double ratio,
                                   uint64_t seed,
                                   EstimatorOptions options = {});

}  // namespace pass

#endif  // PASS_BASELINES_UNIFORM_SAMPLING_H_
