/// Ablations over PASS's own design choices (knobs of EstimatorOptions and
/// BuildOptions): AVG estimator mode, the 0-variance rule, finite population
/// correction, sample allocation policy, hierarchy fanout, and the
/// optimizer's oracle (discretized ADP vs exact-oracle DP on a reduced
/// optimization sample).

#include "bench/bench_common.h"

namespace pass::bench {
namespace {

RunSummary Eval(const Dataset& data, const BuildOptions& options,
                const std::vector<Query>& queries,
                const std::vector<ExactResult>& truths) {
  return EvaluateSystem(MustBuildSynopsis(data, options), queries, truths,
                        EvalOpts(kLambda));
}

void AvgModeAndZeroVarianceRule() {
  std::printf("--- Ablation A: AVG estimator mode x 0-variance rule "
              "(Intel-like, AVG queries) ---\n");
  const Dataset data = MakeIntelLike(IntelRows());
  WorkloadOptions wl;
  wl.agg = AggregateType::kAvg;
  wl.count = NumQueries();
  wl.seed = 1900;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);

  TablePrinter table({"AVG mode", "0-var rule", "MedianRE", "MedianCI",
                      "CI coverage", "Skip rate"});
  for (const AvgMode mode : {AvgMode::kRatio, AvgMode::kPaperWeights}) {
    for (const bool rule : {true, false}) {
      BuildOptions options = PassDefaults(kPartitions, kSampleRate,
                                          AggregateType::kAvg);
      options.estimator.avg_mode = mode;
      options.estimator.zero_variance_rule = rule;
      const RunSummary s = Eval(data, options, queries, truths);
      table.AddRow({mode == AvgMode::kRatio ? "ratio" : "paper-weights",
                    rule ? "on" : "off", Pct(s.median_rel_error),
                    Pct(s.median_ci_ratio), Pct(s.ci_coverage, 1),
                    Pct(s.mean_skip_rate, 1)});
    }
  }
  table.Print();
  std::printf("\n");

  // The rule only bites when partitions are *exactly* constant, so its
  // effect is shown on the adversarial data (87.5% identical zeros).
  std::printf("--- Ablation A2: 0-variance rule on exactly-constant "
              "partitions (adversarial, AVG) ---\n");
  const Dataset adv = MakeAdversarial(AdversarialRows());
  WorkloadOptions adv_wl;
  adv_wl.agg = AggregateType::kAvg;
  adv_wl.count = NumQueries();
  adv_wl.seed = 1910;
  const auto adv_queries = RandomRangeQueries(adv, adv_wl);
  const auto adv_truths = ComputeGroundTruth(adv, adv_queries);
  TablePrinter rule_table({"0-var rule", "MedianCI", "Mean ESS",
                           "Skip rate"});
  for (const bool rule : {true, false}) {
    BuildOptions options = PassDefaults(kPartitions, kSampleRate,
                                        AggregateType::kAvg);
    options.strategy = PartitionStrategy::kEqualDepth;  // constant leaves
    options.estimator.avg_mode = AvgMode::kPaperWeights;
    options.estimator.zero_variance_rule = rule;
    const RunSummary s = Eval(adv, options, adv_queries, adv_truths);
    rule_table.AddRow({rule ? "on" : "off", Pct(s.median_ci_ratio),
                       FormatDouble(s.mean_ess, 4),
                       Pct(s.mean_skip_rate, 1)});
  }
  rule_table.Print();
  std::printf("\n");
}

void FpcEffect() {
  std::printf("--- Ablation B: finite population correction ---\n");
  const Dataset data = MakeTaxiDatetime(TaxiRows());
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = NumQueries();
  wl.seed = 1901;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);
  TablePrinter table({"FPC", "MedianCI", "CI coverage"});
  for (const bool fpc : {true, false}) {
    BuildOptions options = PassDefaults();
    options.estimator.use_fpc = fpc;
    const RunSummary s = Eval(data, options, queries, truths);
    table.AddRow({fpc ? "on" : "off", Pct(s.median_ci_ratio),
                  Pct(s.ci_coverage, 1)});
  }
  table.Print();
  std::printf("\n");
}

void AllocationPolicies() {
  std::printf("--- Ablation C: sample allocation across leaf strata "
              "(adversarial data, challenging SUM queries) ---\n");
  const Dataset data = MakeAdversarial(AdversarialRows());
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = NumQueries();
  wl.seed = 1902;
  const auto queries = ChallengingQueries(data, 0, wl, 10'000, 0.005);
  const auto truths = ComputeGroundTruth(data, queries);
  TablePrinter table({"Allocation", "MedianRE", "MedianCI"});
  for (const auto alloc :
       {SampleAllocation::kProportional, SampleAllocation::kEqual,
        SampleAllocation::kNeyman}) {
    BuildOptions options = PassDefaults(kPartitions, 0.02);
    options.allocation = alloc;
    const RunSummary s = Eval(data, options, queries, truths);
    const char* name = alloc == SampleAllocation::kProportional
                           ? "proportional"
                           : (alloc == SampleAllocation::kEqual ? "equal"
                                                                : "neyman");
    table.AddRow({name, Pct(s.median_rel_error), Pct(s.median_ci_ratio)});
  }
  table.Print();
  std::printf("\n");
}

void FanoutEffect() {
  std::printf("--- Ablation D: hierarchy fanout (index walk size; accuracy "
              "is fanout-invariant by design, Section 4.1) ---\n");
  const Dataset data = MakeTaxiDatetime(TaxiRows());
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = NumQueries();
  wl.seed = 1903;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);
  TablePrinter table({"Fanout", "MedianRE", "Mean latency(ms)",
                      "Tree height", "Nodes"});
  for (const size_t fanout : {2u, 4u, 8u, 64u}) {
    BuildOptions options = PassDefaults(64, kSampleRate);
    options.fanout = fanout;
    const Synopsis s = MustBuildSynopsis(data, options);
    const RunSummary summary =
        EvaluateSystem(s, queries, truths, EvalOpts(kLambda));
    table.AddRow({std::to_string(fanout), Pct(summary.median_rel_error),
                  FormatDouble(summary.mean_latency_ms),
                  std::to_string(s.tree().Height()),
                  std::to_string(s.tree().NumNodes())});
  }
  table.Print();
  std::printf("\n");
}

void OracleChoice() {
  std::printf("--- Ablation E: discretized vs exact max-variance oracle "
              "(reduced optimization sample; adversarial data) ---\n");
  const Dataset data = MakeAdversarial(AdversarialRows());
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = NumQueries();
  wl.seed = 1904;
  const auto queries = ChallengingQueries(data, 0, wl, 10'000, 0.005);
  const auto truths = ComputeGroundTruth(data, queries);
  TablePrinter table({"Oracle", "opt m", "Build(s)", "MedianRE"});
  for (const auto strategy :
       {PartitionStrategy::kAdp, PartitionStrategy::kDpExact}) {
    BuildOptions options = PassDefaults(32, 0.02);
    options.strategy = strategy;
    // The exact oracle is O(m^2) per DP cell: keep m small for it.
    options.opt_sample_size =
        strategy == PartitionStrategy::kDpExact ? 400 : 10'000;
    const Synopsis s = MustBuildSynopsis(data, options);
    const RunSummary summary =
        EvaluateSystem(s, queries, truths, EvalOpts(kLambda));
    table.AddRow({StrategyName(strategy),
                  std::to_string(options.opt_sample_size),
                  FormatDouble(s.build_seconds()),
                  Pct(summary.median_rel_error)});
  }
  table.Print();
  std::printf("\n");
}

void Run() {
  std::printf("=== Ablation bench: PASS design choices (scale %.1f) ===\n\n",
              Scale());
  AvgModeAndZeroVarianceRule();
  FpcEffect();
  AllocationPolicies();
  FanoutEffect();
  OracleChoice();
}

}  // namespace
}  // namespace pass::bench

int main() {
  pass::bench::Run();
  return 0;
}
