#include "engine/engine_registry.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exact.h"
#include "data/generators.h"
#include "engine/exact_system.h"
#include "jit/kernel_cache.h"
#include "kernel/scan_kernel.h"

namespace pass {
namespace {

const std::vector<std::string>& BuiltinNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "agg_uniform", "ensemble",   "exact",      "pass",
      "sharded_pass", "spn",       "stratified", "uniform"};
  return *names;
}

Dataset SmokeData() { return MakeUniform(4000, /*seed=*/11, 1.0, 2.0); }

/// The engines whose scans run through ScanColumns and record kernel tier
/// counters.
const std::vector<std::string>& ScanningNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "ensemble", "exact", "pass", "sharded_pass", "stratified", "uniform"};
  return *names;
}

/// `dims` predicate columns uniform in [0, 1), aggregate uniform in [1, 2).
Dataset UniformCube(size_t dims) {
  std::vector<std::string> names;
  for (size_t k = 0; k < dims; ++k) names.push_back("c" + std::to_string(k));
  Dataset data("agg", names);
  Rng rng(/*seed=*/13);
  std::vector<double> row(dims);
  for (int i = 0; i < 4000; ++i) {
    for (double& v : row) v = rng.UniformDouble();
    data.AddRow(row, rng.UniformDouble(1.0, 2.0));
  }
  return data;
}

Query SmokeQuery() {
  return MakeRangeQuery(AggregateType::kSum, 0.2, 0.8);
}

TEST(EngineRegistry, ListsEveryBuiltinEngine) {
  const std::vector<std::string> names = EngineRegistry::Global().Names();
  for (const std::string& name : BuiltinNames()) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing builtin engine: " << name;
    EXPECT_TRUE(EngineRegistry::Global().Contains(name));
  }
}

TEST(EngineRegistry, EveryBuiltinConstructsAndAnswers) {
  const Dataset data = SmokeData();
  const Query query = SmokeQuery();
  const ExactResult truth = ExactAnswer(data, query);
  ASSERT_GT(truth.matched, 0u);

  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  for (const std::string& name : BuiltinNames()) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
    ASSERT_NE(*engine, nullptr);
    EXPECT_FALSE((*engine)->Name().empty());

    const QueryAnswer answer = (*engine)->Answer(query);
    EXPECT_TRUE(std::isfinite(answer.estimate.value)) << name;
    // Smoke accuracy: every method should land in the right ballpark on
    // this easy uniform workload (exact must be spot on).
    const double rel =
        std::abs(answer.estimate.value - truth.value) / truth.value;
    if (name == "exact") {
      EXPECT_DOUBLE_EQ(answer.estimate.value, truth.value);
      EXPECT_TRUE(answer.exact);
    } else {
      EXPECT_LT(rel, 0.5) << name << " answered " << answer.estimate.value
                          << " vs truth " << truth.value;
    }
  }
}

TEST(EngineRegistry, KernelTierCountersFollowTheDimDispatch) {
  KernelCache counters;
  for (size_t d = 0; d <= 8; ++d) counters.Record(d);
  const KernelTierStats stats = counters.Stats();
  EXPECT_EQ(stats.fixed_scans, kMaxFixedDims);        // d = 1..4
  EXPECT_EQ(stats.generic_scans, 9 - kMaxFixedDims);  // d = 0 and 5..8
  EXPECT_EQ(stats.jit_scans, 0u);
}

TEST(EngineRegistry, ScanningEnginesCountFixedAndGenericScans) {
  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  // The middle band of every dim: a partial leaf's data box fits inside it
  // on at most one dim, so a query over d <= 4 dims contests 1..d per scan
  // (fixed kernels) and a 6-D one 5 or 6 (runtime-dim loop).
  for (const size_t dims : {size_t{1}, size_t{4}, size_t{6}}) {
    SCOPED_TRACE(dims);
    const Dataset data = UniformCube(dims);
    Query query;
    query.predicate = Rect(dims);
    for (size_t k = 0; k < dims; ++k) query.predicate.dim(k) = {0.3, 0.7};
    for (const std::string& name : ScanningNames()) {
      SCOPED_TRACE(name);
      auto engine = EngineRegistry::Global().Create(name, data, config);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      const KernelCache* counters = (*engine)->ScanKernelCache();
      ASSERT_NE(counters, nullptr);
      const KernelTierStats before = counters->Stats();
      (void)(*engine)->Answer(query);
      const KernelTierStats after = counters->Stats();
      const uint64_t fixed = after.fixed_scans - before.fixed_scans;
      const uint64_t generic = after.generic_scans - before.generic_scans;
      if (dims <= kMaxFixedDims) {
        EXPECT_GT(fixed, 0u);
        EXPECT_EQ(generic, 0u);
      } else {
        EXPECT_EQ(fixed, 0u);
        EXPECT_GT(generic, 0u);
      }
      EXPECT_EQ(after.jit_scans, 0u);
    }
  }
}

TEST(EngineRegistry, UnknownNameIsNotFound) {
  const Dataset data = SmokeData();
  auto engine =
      EngineRegistry::Global().Create("no-such-engine", data, EngineConfig{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(EngineRegistry, InvalidConfigIsRejected) {
  const Dataset data = SmokeData();
  EngineConfig config;
  config.sample_rate = 0.0;
  for (const std::string& name : BuiltinNames()) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    ASSERT_FALSE(engine.ok()) << name;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(EngineRegistry, OutOfRangeDimIsRejected) {
  const Dataset data = SmokeData();  // 1 predicate dimension
  EngineConfig config;
  config.dim = 5;
  for (const std::string name : {"stratified", "agg_uniform"}) {
    auto engine = EngineRegistry::Global().Create(name, data, config);
    ASSERT_FALSE(engine.ok()) << name;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(EngineRegistry, ShardedPassHonorsShardCount) {
  const Dataset data = SmokeData();
  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  config.num_shards = 4;
  auto engine = EngineRegistry::Global().Create("sharded_pass", data, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_NE((*engine)->Name().find("4x"), std::string::npos)
      << (*engine)->Name();

  config.num_shards = 0;
  auto bad = EngineRegistry::Global().Create("sharded_pass", data, config);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineRegistry, EnsembleRejectsOutOfRangeTemplateDim) {
  const Dataset data = SmokeData();  // 1 predicate dimension
  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  config.ensemble_templates = {{0}, {3}};
  auto engine = EngineRegistry::Global().Create("ensemble", data, config);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineRegistry, EmptyDatasetIsRejected) {
  const Dataset empty("agg", {"c1"});
  auto engine =
      EngineRegistry::Global().Create("uniform", empty, EngineConfig{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineRegistry, CustomRegistrationIsCreatable) {
  EngineRegistry registry;
  registry.Register("custom-exact",
                    [](const Dataset& data, const EngineConfig&)
                        -> Result<std::unique_ptr<AqpSystem>> {
                      return std::unique_ptr<AqpSystem>(new ExactSystem(data));
                    });
  EXPECT_TRUE(registry.Contains("custom-exact"));
  EXPECT_FALSE(registry.Contains("exact"));  // fresh registry, no builtins

  const Dataset data = SmokeData();
  auto engine = registry.Create("custom-exact", data, EngineConfig{});
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Name(), "Exact");
}

}  // namespace
}  // namespace pass
