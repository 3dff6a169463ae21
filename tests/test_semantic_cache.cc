/// The semantic answer cache (EngineConfig::cache): bit-identity of cached
/// answers across the whole registry and through resumed sessions,
/// hit/miss/evict accounting, hits that scan nothing, dataset-version
/// invalidation, and thread-safety of a shared cache under concurrent
/// readers (this binary is a TSan CI target).

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_system.h"
#include "cache/semantic_answer_cache.h"
#include "core/exact.h"
#include "data/generators.h"
#include "engine/engine_registry.h"
#include "jit/kernel_cache.h"
#include "tests/test_util.h"

namespace pass {
namespace {

using testing::AnswersBitIdentical;
using testing::ExpectAnswersBitIdentical;
using testing::RangeQueryOnDim;

void ExpectMultiBitIdentical(const MultiAnswer& a, const MultiAnswer& b) {
  ExpectAnswersBitIdentical(a.sum, b.sum);
  ExpectAnswersBitIdentical(a.count, b.count);
  ExpectAnswersBitIdentical(a.avg, b.avg);
  EXPECT_EQ(a.sum_count_cov, b.sum_count_cov);
  EXPECT_EQ(a.fused, b.fused);
}

EngineConfig BaseConfig(uint64_t seed = 21) {
  EngineConfig config;
  config.sample_rate = 0.05;
  config.partitions = 16;
  config.strategy = PartitionStrategy::kEqualDepth;
  config.seed = seed;
  return config;
}

std::unique_ptr<AqpSystem> MustCreate(const std::string& name,
                                      const Dataset& data,
                                      const EngineConfig& config) {
  auto engine = EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

/// The query stream every bit-identity case replays: repeats (cache hits)
/// and overlapping-but-distinct rectangles (misses).
std::vector<Rect> OverlappingRects() {
  std::vector<Rect> rects;
  const std::vector<std::pair<double, double>> ranges = {
      {3000.0, 17000.0}, {3000.0, 12000.0}, {5000.0, 17000.0},
      {3000.0, 17000.0},  // repeat of the first: a cache hit
      {1000.0, 9000.0},  {5000.0, 17000.0},  // another repeat
  };
  for (const auto& [lo, hi] : ranges) {
    Rect r = Rect::All(1);
    r.dim(0) = Interval{lo, hi};
    rects.push_back(r);
  }
  return rects;
}

struct EngineCase {
  std::string name;
  size_t num_shards = 1;
};

std::string CaseName(const ::testing::TestParamInfo<EngineCase>& info) {
  return info.param.name +
         (info.param.num_shards > 1
              ? "_k" + std::to_string(info.param.num_shards)
              : "");
}

// ---------------------------------------------------------------------------
// Bit-identity: cache participation must be invisible in the answer bits
// ---------------------------------------------------------------------------

class CacheBitIdentity : public ::testing::TestWithParam<EngineCase> {};

TEST_P(CacheBitIdentity, AnswersMatchUncachedTwinOverRepeatedStream) {
  const EngineCase& param = GetParam();
  const Dataset data = MakeIntelLike(8000, 77);

  EngineConfig config = BaseConfig();
  config.num_shards = param.num_shards;
  const auto bare = MustCreate(param.name, data, config);
  config.cache.enabled = true;
  const auto cached = MustCreate(param.name, data, config);
  ASSERT_NE(cached->AnswerCache(), nullptr);
  EXPECT_EQ(bare->AnswerCache(), nullptr);
  EXPECT_EQ(cached->Name(), bare->Name());
  EXPECT_EQ(cached->SupportsBudget(), bare->SupportsBudget());

  // Two passes over the stream: the second pass serves repeats from the
  // cache, and the bits must not change.
  const std::vector<Rect> rects = OverlappingRects();
  for (int pass = 0; pass < 2; ++pass) {
    for (const Rect& rect : rects) {
      for (const AggregateType agg :
           {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg}) {
        Query q;
        q.agg = agg;
        q.predicate = rect;
        ExpectAnswersBitIdentical(cached->Answer(q), bare->Answer(q));
      }
      ExpectMultiBitIdentical(cached->AnswerMulti(rect),
                              bare->AnswerMulti(rect));
    }
  }
  // The stream's repeats actually exercised the cache.
  const CacheStats stats = cached->AnswerCache()->Stats();
  EXPECT_GT(stats.exact_hits, 0u);
  EXPECT_GT(stats.exact_misses, 0u);
}

TEST_P(CacheBitIdentity, BudgetedAnswersBypassTheExactTier) {
  const EngineCase& param = GetParam();
  const Dataset data = MakeIntelLike(8000, 78);

  EngineConfig config = BaseConfig();
  config.num_shards = param.num_shards;
  const auto bare = MustCreate(param.name, data, config);
  config.cache.enabled = true;
  const auto cached = MustCreate(param.name, data, config);

  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3000.0, 17000.0);
  AnswerOptions options;
  options.budget.max_scan_units = 100;
  options.seed = 5;
  // Twice: a budgeted repeat must re-run the engine, not replay a cached
  // budgeted answer (the key deliberately omits budget and seed).
  for (int i = 0; i < 2; ++i) {
    ExpectAnswersBitIdentical(cached->Answer(q, options),
                              bare->Answer(q, options));
  }
  const CacheStats stats = cached->AnswerCache()->Stats();
  EXPECT_EQ(stats.exact_hits, 0u);
  EXPECT_EQ(stats.exact_misses, 0u);
  EXPECT_EQ(stats.exact_entries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CacheBitIdentity,
    ::testing::Values(EngineCase{"exact"}, EngineCase{"uniform"},
                      EngineCase{"stratified"}, EngineCase{"agg_uniform"},
                      EngineCase{"spn"}, EngineCase{"pass"},
                      EngineCase{"ensemble"}, EngineCase{"sharded_pass", 2},
                      EngineCase{"sharded_pass", 4}),
    CaseName);

// Sessions on a cached engine bypass the cache and forward to the inner
// engine; every rung of the ladder must match the bare engine's session.
class CacheSessionIdentity : public ::testing::TestWithParam<EngineCase> {};

TEST_P(CacheSessionIdentity, ResumedSessionsMatchUncachedTwin) {
  const EngineCase& param = GetParam();
  const Dataset data = MakeIntelLike(8000, 79);

  EngineConfig config = BaseConfig();
  config.num_shards = param.num_shards;
  const auto bare = MustCreate(param.name, data, config);
  config.cache.enabled = true;
  const auto cached = MustCreate(param.name, data, config);

  Rect predicate = Rect::All(1);
  predicate.dim(0) = Interval{3000.0, 17000.0};
  const auto cached_session = cached->StartSession(predicate, /*seed=*/9);
  const auto bare_session = bare->StartSession(predicate, /*seed=*/9);
  ASSERT_NE(cached_session, nullptr);
  ASSERT_NE(bare_session, nullptr);
  ASSERT_EQ(cached_session->PlanCost(), bare_session->PlanCost());

  const uint64_t plan = bare_session->PlanCost();
  for (const double fraction : {0.0, 0.25, 0.5, 1.0}) {
    const uint64_t cap =
        static_cast<uint64_t>(fraction * static_cast<double>(plan));
    ExpectMultiBitIdentical(cached_session->AdvanceTo(cap),
                            bare_session->AdvanceTo(cap));
  }
  EXPECT_TRUE(cached_session->Exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CacheSessionIdentity,
    ::testing::Values(EngineCase{"pass"}, EngineCase{"ensemble"},
                      EngineCase{"sharded_pass", 2},
                      EngineCase{"sharded_pass", 4}),
    CaseName);

// ---------------------------------------------------------------------------
// Accounting: hits, misses, capacity eviction, re-insertion
// ---------------------------------------------------------------------------

TEST(SemanticCache, HitMissAndFifoEvictionAccounting) {
  const Dataset data = MakeIntelLike(4000, 80);
  EngineConfig config = BaseConfig();
  config.cache.enabled = true;
  config.cache.max_exact_entries = 2;
  const auto engine = MustCreate("pass", data, config);
  const SemanticAnswerCache* cache = engine->AnswerCache();
  ASSERT_NE(cache, nullptr);

  std::vector<Query> queries;
  for (const double hi : {5000.0, 9000.0, 13000.0}) {
    queries.push_back(RangeQueryOnDim(AggregateType::kSum, 1, 0, 0.0, hi));
  }

  engine->Answer(queries[0]);  // miss, insert        {0}
  EXPECT_EQ(cache->Stats().exact_misses, 1u);
  EXPECT_EQ(cache->Stats().exact_hits, 0u);
  engine->Answer(queries[0]);  // hit                 {0}
  EXPECT_EQ(cache->Stats().exact_hits, 1u);
  engine->Answer(queries[1]);  // miss, insert        {0, 1}
  EXPECT_EQ(cache->Stats().exact_entries, 2u);
  engine->Answer(queries[2]);  // miss, evicts oldest {1, 2}
  EXPECT_EQ(cache->Stats().exact_entries, 2u);
  EXPECT_EQ(cache->Stats().evictions, 1u);
  engine->Answer(queries[0]);  // evicted: a miss again
  EXPECT_EQ(cache->Stats().exact_misses, 4u);
  engine->Answer(queries[2]);  // still resident
  EXPECT_EQ(cache->Stats().exact_hits, 2u);
}

TEST(SemanticCache, SingleAndMultiEntriesAreKeyedApart) {
  CacheConfig config;
  config.enabled = true;
  SemanticAnswerCache cache(config);

  Rect rect = Rect::All(1);
  rect.dim(0) = Interval{0.1, 0.9};
  const Rect canonical = rect.Canonical();

  QueryAnswer sum;
  sum.estimate.value = 7.0;
  cache.Insert(canonical, AggregateType::kSum, sum);
  // Inserting a resident key again adds no entry and evicts nothing.
  cache.Insert(canonical, AggregateType::kSum, sum);
  EXPECT_EQ(cache.Stats().exact_entries, 1u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  // Same rect, different aggregate: distinct key.
  EXPECT_FALSE(cache.Lookup(canonical, AggregateType::kCount).has_value());
  // Same rect, multi map: also distinct.
  EXPECT_FALSE(cache.LookupMulti(canonical).has_value());

  MultiAnswer multi;
  multi.sum.estimate.value = 7.0;
  cache.InsertMulti(canonical, multi);
  EXPECT_TRUE(cache.LookupMulti(canonical).has_value());
  EXPECT_EQ(cache.Stats().exact_entries, 2u);
}

// ---------------------------------------------------------------------------
// Work: a cache hit scans nothing
// ---------------------------------------------------------------------------

/// The work-count twin of bench_micro's claim that a warm hit beats a cold
/// miss: the first Answer and the first AnswerMulti of a predicate scan
/// leaf samples, and their repeats come back bit-identical without moving
/// the engine's kernel tier counters.
TEST(SemanticCache, HitsScanNothing) {
  const Dataset data = MakeIntelLike(8000, 85);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const std::string name = shards == 1 ? "pass" : "sharded_pass";
    SCOPED_TRACE(name);
    EngineConfig config = BaseConfig();
    config.num_shards = shards;
    config.cache.enabled = true;
    const auto engine = MustCreate(name, data, config);
    const KernelCache* counters = engine->ScanKernelCache();
    ASSERT_NE(counters, nullptr);
    const auto scans = [counters] {
      const KernelTierStats stats = counters->Stats();
      return stats.fixed_scans + stats.generic_scans;
    };

    // Both ends cut a leaf: the time column is the row index, 0..7999.
    const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 3137.0, 6421.0);
    uint64_t before = scans();
    const QueryAnswer first = engine->Answer(q);
    EXPECT_GT(scans(), before);
    before = scans();
    ExpectAnswersBitIdentical(engine->Answer(q), first);
    EXPECT_EQ(scans(), before);

    before = scans();
    const MultiAnswer first_multi = engine->AnswerMulti(q.predicate);
    EXPECT_GT(scans(), before);
    before = scans();
    ExpectMultiBitIdentical(engine->AnswerMulti(q.predicate), first_multi);
    EXPECT_EQ(scans(), before);

    const CacheStats stats = engine->AnswerCache()->Stats();
    EXPECT_EQ(stats.exact_misses, 2u);
    EXPECT_EQ(stats.exact_hits, 2u);
  }
}

// ---------------------------------------------------------------------------
// Dataset-version invalidation: the cache flushes, stale bits never served
// ---------------------------------------------------------------------------

TEST(SemanticCache, DatasetVersionChangeFlushesBothTiersAndRefreshes) {
  Dataset data("agg", {"c1"});
  for (size_t i = 0; i < 100; ++i) {
    data.AddRow({static_cast<double>(i)}, 1.0);
  }

  EngineConfig config;
  config.cache.enabled = true;
  const auto engine = MustCreate("exact", data, config);
  const SemanticAnswerCache* cache = engine->AnswerCache();
  ASSERT_NE(cache, nullptr);

  const Query q = RangeQueryOnDim(AggregateType::kSum, 1, 0, 0.0, 1000.0);
  const QueryAnswer before = engine->Answer(q);
  EXPECT_DOUBLE_EQ(before.estimate.value, 100.0);
  engine->Answer(q);  // cached
  EXPECT_EQ(cache->Stats().exact_hits, 1u);
  EXPECT_EQ(cache->Stats().invalidations, 0u);

  // Appending a row bumps Dataset::version(); the next answer must see
  // the new row, not the cached 100.0.
  data.AddRow({50.0}, 1.0);
  const QueryAnswer after = engine->Answer(q);
  EXPECT_DOUBLE_EQ(after.estimate.value, 101.0);
  const CacheStats stats = cache->Stats();
  EXPECT_EQ(stats.invalidations, 1u);
  // The flush emptied the cache before the post-append insert repopulated
  // it with exactly the refreshed answer.
  EXPECT_EQ(stats.exact_entries, 1u);
  EXPECT_TRUE(engine->Answer(q).estimate.value == 101.0);
}

TEST(SemanticCache, EnsureVersionFirstStampDoesNotCountAsInvalidation) {
  CacheConfig config;
  config.enabled = true;
  SemanticAnswerCache cache(config);
  EXPECT_FALSE(cache.EnsureVersion(7));   // first stamp: record only
  EXPECT_FALSE(cache.EnsureVersion(7));   // unchanged
  EXPECT_TRUE(cache.EnsureVersion(8));    // moved: flush
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: one shared cache, many readers (TSan target)
// ---------------------------------------------------------------------------

/// Runs on `pass` and on serve_mix's engine, a cached `sharded_pass` at
/// K=4 whose readers each walk every shard of their query.
TEST(SemanticCache, ConcurrentReadersSeeBitIdenticalAnswers) {
  const Dataset data = MakeIntelLike(6000, 82);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const std::string name = shards == 1 ? "pass" : "sharded_pass";
    SCOPED_TRACE(name);
    EngineConfig config = BaseConfig();
    config.num_shards = shards;
    const auto bare = MustCreate(name, data, config);
    config.cache.enabled = true;
    config.cache.max_exact_entries = 3;  // small: eviction under contention
    const auto cached = MustCreate(name, data, config);

    const std::vector<Rect> rects = OverlappingRects();
    std::vector<QueryAnswer> expected;
    for (const Rect& rect : rects) {
      Query q;
      q.agg = AggregateType::kSum;
      q.predicate = rect;
      expected.push_back(bare->Answer(q));
    }

    constexpr size_t kThreads = 4;
    constexpr size_t kIterations = 50;
    std::vector<std::thread> threads;
    std::vector<size_t> mismatches(kThreads, 0);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kIterations; ++i) {
          const size_t pick = (t + i) % rects.size();
          Query q;
          q.agg = AggregateType::kSum;
          q.predicate = rects[pick];
          if (!AnswersBitIdentical(cached->Answer(q), expected[pick])) {
            ++mismatches[t];
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    }
    const CacheStats stats = cached->AnswerCache()->Stats();
    EXPECT_EQ(stats.exact_hits + stats.exact_misses, kThreads * kIterations);
  }
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(SemanticCache, ConfigValidationRejectsNonsense) {
  const Dataset data = MakeIntelLike(4000, 84);
  EngineConfig config = BaseConfig();
  config.cache.enabled = true;
  config.cache.max_exact_entries = 0;
  auto no_capacity = EngineRegistry::Global().Create("pass", data, config);
  ASSERT_FALSE(no_capacity.ok());
  EXPECT_EQ(no_capacity.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pass
