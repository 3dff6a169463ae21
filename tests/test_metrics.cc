#include "harness/metrics.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "harness/table_printer.h"
#include "tests/test_util.h"

namespace pass {
namespace {

/// A fake system that answers every query with truth * (1 + bias) and a
/// fixed CI half-width fraction.
class FakeSystem final : public AqpSystem {
 public:
  FakeSystem(const Dataset& data, double bias, double ci_frac)
      : data_(data), bias_(bias), ci_frac_(ci_frac) {}

  std::string Name() const override { return "fake"; }
  SystemCosts Costs() const override { return {1.5, 4096}; }

 protected:
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions&) const override {
    const ExactResult truth = ExactAnswer(data_, query);
    QueryAnswer out;
    out.estimate.value = truth.value * (1.0 + bias_);
    const double half = std::abs(truth.value) * ci_frac_;
    out.estimate.variance = (half / 2.576) * (half / 2.576);
    out.hard_lb = truth.value - 10.0 * std::abs(truth.value) - 1.0;
    out.hard_ub = truth.value + 10.0 * std::abs(truth.value) + 1.0;
    out.population_rows = data_.NumRows();
    out.population_rows_skipped = data_.NumRows() / 2;
    out.sample_rows_scanned = 100;
    return out;
  }

 private:
  const Dataset& data_;
  double bias_;
  double ci_frac_;
};

TEST(Metrics, GroundTruthMatchesExactAnswer) {
  const Dataset data = MakeUniform(2000, 30);
  WorkloadOptions wl;
  wl.count = 10;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);
  ASSERT_EQ(truths.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const ExactResult direct = ExactAnswer(data, queries[i]);
    EXPECT_DOUBLE_EQ(truths[i].value, direct.value);
    EXPECT_EQ(truths[i].matched, direct.matched);
  }
}

TEST(Metrics, BiasShowsUpAsRelativeError) {
  const Dataset data = MakeUniform(5000, 31, 5.0, 6.0);
  const FakeSystem fake(data, 0.02, 0.1);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 50;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);
  const RunSummary summary = EvaluateSystem(fake, queries, truths);
  EXPECT_NEAR(summary.median_rel_error, 0.02, 1e-9);
  EXPECT_NEAR(summary.mean_rel_error, 0.02, 1e-9);
  EXPECT_NEAR(summary.median_ci_ratio, 0.1, 1e-9);
  EXPECT_NEAR(summary.mean_skip_rate, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(summary.hard_coverage, 1.0);
  EXPECT_EQ(summary.costs.storage_bytes, 4096u);
}

TEST(Metrics, CiCoverageReflectsWidth) {
  const Dataset data = MakeUniform(5000, 32, 5.0, 6.0);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 40;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);
  // 2% bias with 10% CI: always covered. 20% bias with 1% CI: never.
  const FakeSystem good(data, 0.02, 0.1);
  const FakeSystem bad(data, 0.20, 0.01);
  EXPECT_DOUBLE_EQ(EvaluateSystem(good, queries, truths).ci_coverage, 1.0);
  EXPECT_DOUBLE_EQ(EvaluateSystem(bad, queries, truths).ci_coverage, 0.0);
}

TEST(Metrics, SkipsZeroTruthQueries) {
  Dataset data("v", {"x"});
  for (int i = 0; i < 100; ++i) data.AddRow({static_cast<double>(i)}, 0.0);
  const FakeSystem fake(data, 0.5, 0.1);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 10;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);
  const RunSummary summary = EvaluateSystem(fake, queries, truths);
  EXPECT_EQ(summary.num_scored, 0u);
  EXPECT_EQ(summary.num_queries, 10u);
}

TEST(Metrics, EmptyWorkloadReportsZeros) {
  const Dataset data = MakeUniform(1000, 33);
  const FakeSystem fake(data, 0.0, 0.1);
  EXPECT_TRUE(ComputeGroundTruth(data, {}).empty());
  const RunSummary summary = EvaluateSystem(fake, {}, {});
  EXPECT_EQ(summary.num_queries, 0u);
  EXPECT_EQ(summary.num_scored, 0u);
  EXPECT_EQ(summary.median_rel_error, 0.0);
  EXPECT_EQ(summary.mean_latency_ms, 0.0);
  EXPECT_EQ(summary.p50_latency_ms, 0.0);
  EXPECT_EQ(summary.p95_latency_ms, 0.0);
  EXPECT_EQ(summary.batch_qps, 0.0);
  EXPECT_EQ(summary.ci_coverage, 0.0);
  EXPECT_EQ(summary.hard_coverage, 1.0);
}

/// The worker count changes where a query runs, never what it computes:
/// a sharded engine scored on 1 and on 4 workers reports the same accuracy
/// to the bit.
TEST(Metrics, AccuracyIsIndependentOfWorkerCount) {
  const Dataset data = MakeIntelLike(8000, 34);
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.num_shards = 4;
  auto engine = EngineRegistry::Global().Create("sharded_pass", data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  WorkloadOptions wl;
  wl.agg = AggregateType::kAvg;
  wl.count = 60;
  wl.seed = 35;
  const auto queries = RandomRangeQueries(data, wl);
  const auto truths = ComputeGroundTruth(data, queries);

  EvalOptions one;
  one.num_threads = 1;
  EvalOptions four;
  four.num_threads = 4;
  const RunSummary a = EvaluateSystem(**engine, queries, truths, one);
  const RunSummary b = EvaluateSystem(**engine, queries, truths, four);
  ASSERT_GT(a.num_scored, 0u);
  EXPECT_EQ(a.num_queries, b.num_queries);
  EXPECT_EQ(a.num_scored, b.num_scored);
  EXPECT_EQ(a.median_rel_error, b.median_rel_error);
  EXPECT_EQ(a.mean_rel_error, b.mean_rel_error);
  EXPECT_EQ(a.p95_rel_error, b.p95_rel_error);
  EXPECT_EQ(a.median_ci_ratio, b.median_ci_ratio);
  EXPECT_EQ(a.mean_skip_rate, b.mean_skip_rate);
  EXPECT_EQ(a.mean_ess, b.mean_ess);
  EXPECT_EQ(a.ci_coverage, b.ci_coverage);
  EXPECT_EQ(a.hard_coverage, b.hard_coverage);
  EXPECT_EQ(a.hard_given, b.hard_given);
}

TEST(TablePrinter, RendersAllCells) {
  TablePrinter table({"col_a", "col_b"});
  table.AddRow({"1", "two"});
  table.AddRow({"three", "4"});
  // Smoke: printing to a memstream captures every cell.
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* mem = open_memstream(&buffer, &size);
  table.Print(mem);
  std::fclose(mem);
  const std::string out(buffer, size);
  free(buffer);
  for (const char* cell : {"col_a", "col_b", "1", "two", "three", "4"}) {
    EXPECT_NE(out.find(cell), std::string::npos) << cell;
  }
}

TEST(Formatting, Helpers) {
  EXPECT_EQ(FormatPercent(0.1234, 1), "12.3%");
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.14");
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.0KB");
  EXPECT_EQ(FormatBytes(3 << 20), "3.0MB");
}

}  // namespace
}  // namespace pass
