/// Prints a bit-level digest of answers from every registered engine (SUM,
/// COUNT and AVG, and the paper-weights AVG where an engine has one), plus
/// sharded (K in {2, 4}), resumed-session, one-shot budgeted (every
/// aggregate, K in {1, 2, 4}) and cache-hit paths, on a fixed
/// dataset and workload, and of the default (ADP) builds: the greedy kd
/// expansion on 3-D data and the 1-D DP, unsharded and at K=4, of
/// 100k-row 3-D kd builds (greedy, breadth-first and at K=2), and of
/// synopses that took a stream of inserts and deletes (Section 4.5). Every
/// floating-point field is shown as its raw hex bit pattern, so two builds
/// can be compared for exact bit-identity by diffing stdout:
///
///   build-simd/answer_digest  > simd.txt
///   build-scalar/answer_digest > scalar.txt   # -DPASS_SIMD=OFF
///   diff simd.txt scalar.txt                  # empty when bit-identical
///
/// CI runs exactly this diff to gate the scan kernel's determinism
/// contract (src/kernel/scan_kernel.h) across vectorized and scalar
/// builds.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "core/answer.h"
#include "core/synopsis.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine/engine_registry.h"
#include "kernel/scan_kernel.h"
#include "partition/builder.h"

namespace {

using namespace pass;

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void PrintAnswer(const char* label, const QueryAnswer& a) {
  std::printf("%s value=%016" PRIx64 " var=%016" PRIx64, label,
              Bits(a.estimate.value), Bits(a.estimate.variance));
  if (a.hard_lb) {
    std::printf(" lb=%016" PRIx64, Bits(*a.hard_lb));
  } else {
    std::printf(" lb=-");
  }
  if (a.hard_ub) {
    std::printf(" ub=%016" PRIx64, Bits(*a.hard_ub));
  } else {
    std::printf(" ub=-");
  }
  std::printf(" exact=%d truncated=%d\n", a.exact ? 1 : 0,
              a.truncated ? 1 : 0);
}

/// The workload's SUM rows carry no tag, so their labels read as before
/// COUNT and AVG rows joined the digest.
const char* AggTag(AggregateType agg) {
  if (agg == AggregateType::kCount) return " count";
  if (agg == AggregateType::kAvg) return " avg";
  return "";
}

Query WithAgg(Query query, AggregateType agg) {
  query.agg = agg;
  return query;
}

EngineConfig DigestConfig(size_t num_shards, bool cache) {
  EngineConfig config;
  config.sample_rate = 0.02;
  config.partitions = 16;
  config.strategy = PartitionStrategy::kEqualDepth;
  config.num_shards = num_shards;
  config.seed = 42;
  config.cache.enabled = cache;
  return config;
}

std::unique_ptr<AqpSystem> MakeEngine(const Dataset& data,
                                      const std::string& name,
                                      const EngineConfig& config) {
  auto engine = EngineRegistry::Global().Create(name, data, config);
  PASS_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

std::unique_ptr<AqpSystem> MakeEngine(const Dataset& data,
                                      const std::string& name,
                                      size_t num_shards, bool cache) {
  return MakeEngine(data, name, DigestConfig(num_shards, cache));
}

/// The rows an update stream replays on a synopsis: on every dim, each
/// leaf condition's lo and hi and their nextafter neighbours both ways
/// (the other coordinates at the leaf's data lo); then -0.0, +0.0, -inf,
/// +inf and NaN, and a point on either side of the data range (the other
/// coordinates at the root's data lo).
std::vector<std::vector<double>> UpdateStream(const PartitionTree& tree) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Rect& root = tree.node(tree.root()).data_bounds;
  const size_t d = root.NumDims();
  std::vector<std::vector<double>> rows;
  const auto add = [&](const Rect& base, size_t dim, double x) {
    std::vector<double> row(d);
    for (size_t i = 0; i < d; ++i) row[i] = base.dim(i).lo;
    row[dim] = x;
    rows.push_back(std::move(row));
  };
  for (const int32_t leaf : tree.leaves()) {
    const PartitionTree::Node& n = tree.node(leaf);
    for (size_t dim = 0; dim < d; ++dim) {
      for (const double edge :
           {n.condition.dim(dim).lo, n.condition.dim(dim).hi}) {
        add(n.data_bounds, dim, std::nextafter(edge, -kInf));
        add(n.data_bounds, dim, edge);
        add(n.data_bounds, dim, std::nextafter(edge, kInf));
      }
    }
  }
  for (size_t dim = 0; dim < d; ++dim) {
    const Interval& range = root.dim(dim);
    const double span = range.hi - range.lo + 1.0;
    for (const double x :
         {-0.0, 0.0, -kInf, kInf, std::numeric_limits<double>::quiet_NaN(),
          range.lo - span, range.hi + span}) {
      add(root, dim, x);
    }
  }
  return rows;
}

}  // namespace

int main() {
  // Note: NOT printed as part of the digest body — the whole point is that
  // the two builds differ on this flag yet agree on every answer bit.
  std::fprintf(stderr, "scan kernel: %s\n",
               ScanKernelVectorized() ? "vectorized" : "scalar");

  const Dataset data = MakeTaxiLike(4000, /*seed=*/9);
  WorkloadOptions wl;
  wl.agg = AggregateType::kSum;
  wl.count = 12;
  wl.seed = 77;
  const std::vector<Query> queries = RandomRangeQueries(data, wl);
  char label[96];

  // Every registered engine on the shared workload: its SUM queries, then
  // COUNT and AVG over the same ranges.
  for (const std::string& name : EngineRegistry::Global().Names()) {
    const auto engine = MakeEngine(data, name, /*num_shards=*/1,
                                   /*cache=*/false);
    for (const AggregateType agg :
         {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg}) {
      for (size_t i = 0; i < queries.size(); ++i) {
        std::snprintf(label, sizeof(label), "%s%s q%zu", name.c_str(),
                      AggTag(agg), i);
        PrintAnswer(label, engine->Answer(WithAgg(queries[i], agg)));
      }
    }
  }

  // The paper-weights AVG estimator (AvgMode::kPaperWeights) of every
  // engine that offers one.
  for (const char* name : {"pass", "uniform", "stratified"}) {
    EngineConfig config = DigestConfig(/*num_shards=*/1, /*cache=*/false);
    config.estimator.avg_mode = AvgMode::kPaperWeights;
    const auto engine = MakeEngine(data, name, config);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::snprintf(label, sizeof(label), "%s avg_pw q%zu", name, i);
      PrintAnswer(label,
                  engine->Answer(WithAgg(queries[i], AggregateType::kAvg)));
    }
  }

  // Sharded execution at K in {2, 4}.
  for (const size_t k : {2u, 4u}) {
    const auto sharded =
        MakeEngine(data, "sharded_pass", k, /*cache=*/false);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::snprintf(label, sizeof(label), "sharded_k%zu q%zu", k, i);
      PrintAnswer(label, sharded->Answer(queries[i]));
    }
  }

  // Resumed sessions: step a session through a budget ladder; each rung's
  // intermediate MultiAnswer is part of the digest.
  for (const size_t k : {1u, 2u, 4u}) {
    const auto engine =
        MakeEngine(data, "sharded_pass", k, /*cache=*/false);
    const auto session = engine->StartSession(queries[0].predicate,
                                              /*seed=*/5);
    PASS_CHECK(session != nullptr);
    const uint64_t plan = session->PlanCost();
    for (const uint64_t cap : {plan / 4, plan / 2, plan}) {
      const MultiAnswer step = session->AdvanceTo(cap);
      std::snprintf(label, sizeof(label),
                    "session_k%zu cap%" PRIu64 " sum", k, cap);
      PrintAnswer(label, step.sum);
      std::snprintf(label, sizeof(label),
                    "session_k%zu cap%" PRIu64 " count", k, cap);
      PrintAnswer(label, step.count);
      std::snprintf(label, sizeof(label),
                    "session_k%zu cap%" PRIu64 " avg", k, cap);
      PrintAnswer(label, step.avg);
    }
  }

  // One-shot budgeted answers: every aggregate through Answer, then the
  // fused AnswerMulti, at a quarter and half of each query's plan, with a
  // per-query seed.
  for (const size_t k : {1u, 2u, 4u}) {
    const auto engine =
        MakeEngine(data, "sharded_pass", k, /*cache=*/false);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Rect& predicate = queries[i].predicate;
      const uint64_t plan = engine->StartSession(predicate, 0)->PlanCost();
      for (const uint64_t cap : {plan / 4, plan / 2}) {
        AnswerOptions options;
        options.budget.max_scan_units = cap;
        options.seed = 3 + i;
        for (const AggregateType agg :
             {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg,
              AggregateType::kMin, AggregateType::kMax}) {
          std::snprintf(label, sizeof(label),
                        "budget_k%zu q%zu cap%" PRIu64 " %s", k, i, cap,
                        AggregateName(agg));
          PrintAnswer(label,
                      engine->Answer(WithAgg(queries[i], agg), options));
        }
        const MultiAnswer multi = engine->AnswerMulti(predicate, options);
        const QueryAnswer MultiAnswer::*parts[] = {
            &MultiAnswer::sum, &MultiAnswer::count, &MultiAnswer::avg};
        const char* names[] = {"sum", "count", "avg"};
        for (size_t p = 0; p < 3; ++p) {
          std::snprintf(label, sizeof(label),
                        "budget_k%zu q%zu cap%" PRIu64 " multi %s", k, i, cap,
                        names[p]);
          PrintAnswer(label, multi.*parts[p]);
        }
      }
    }
  }

  // Semantic answer cache: the cold miss and the hit it seeds must both
  // reproduce bit-for-bit.
  {
    const auto cached = MakeEngine(data, "pass", /*num_shards=*/1,
                                   /*cache=*/true);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::snprintf(label, sizeof(label), "cache_cold q%zu", i);
      PrintAnswer(label, cached->Answer(queries[i]));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      std::snprintf(label, sizeof(label), "cache_hit q%zu", i);
      PrintAnswer(label, cached->Answer(queries[i]));
    }
  }

  // Default-strategy builds. Every row above builds equal-depth leaves;
  // these pin the partitions the ADP builds produce: the greedy kd
  // expansion over three dims, then the 1-D DP unsharded and at K=4. A
  // larger sample keeps most 3-D answers off an empty match.
  for (const size_t k : {1u, 4u}) {
    EngineConfig adp = DigestConfig(k, /*cache=*/false);
    adp.strategy = PartitionStrategy::kAdp;
    adp.partitions = 32;
    adp.sample_rate = 0.1;
    if (k == 1) {
      const Dataset data3 = data.WithPredDims(3);
      WorkloadOptions wl3 = wl;
      wl3.template_dims = {0, 1, 2};
      const std::vector<Query> queries3 = RandomRangeQueries(data3, wl3);
      const auto kd = MakeEngine(data3, "pass", adp);
      for (size_t i = 0; i < queries3.size(); ++i) {
        std::snprintf(label, sizeof(label), "adp_kd3 q%zu", i);
        PrintAnswer(label, kd->Answer(queries3[i]));
      }
    }
    const Dataset data1 = data.WithPredDims(1);
    const std::vector<Query> queries1 = RandomRangeQueries(data1, wl);
    const auto engine =
        MakeEngine(data1, k == 1 ? "pass" : "sharded_pass", adp);
    for (size_t i = 0; i < queries1.size(); ++i) {
      std::snprintf(label, sizeof(label), "adp_1d_k%zu q%zu", k, i);
      PrintAnswer(label, engine->Answer(queries1[i]));
    }
  }

  // Large kd builds. Every kd build above splits at most 4000 rows; these
  // take their medians over ranges of tens of thousands. 100k 3-D rows, 64
  // leaves, a 2% sample: the greedy (ADP) and breadth-first expansions
  // unsharded, and the default build at K=2.
  {
    const Dataset big = MakeTaxiLike(100'000, /*seed=*/9).WithPredDims(3);
    WorkloadOptions wl3 = wl;
    wl3.template_dims = {0, 1, 2};
    const std::vector<Query> big_queries = RandomRangeQueries(big, wl3);
    struct BigBuild {
      const char* tag;
      const char* engine;
      size_t shards;
      PartitionStrategy strategy;
    };
    const BigBuild builds[] = {
        {"big_kd3_adp", "pass", 1, PartitionStrategy::kAdp},
        {"big_kd3_bf", "pass", 1, PartitionStrategy::kKdBreadthFirst},
        {"big_kd3_k2", "sharded_pass", 2, PartitionStrategy::kAdp}};
    for (const BigBuild& build : builds) {
      EngineConfig config = DigestConfig(build.shards, /*cache=*/false);
      config.strategy = build.strategy;
      config.partitions = 64;
      const auto engine = MakeEngine(big, build.engine, config);
      for (const AggregateType agg :
           {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg}) {
        for (size_t i = 0; i < big_queries.size(); ++i) {
          std::snprintf(label, sizeof(label), "%s%s q%zu", build.tag,
                        AggTag(agg), i);
          PrintAnswer(label, engine->Answer(WithAgg(big_queries[i], agg)));
        }
      }
    }
  }

  // Updates (Section 4.5): `pass` over the shared rows as a 1-D
  // equal-depth, a 1-D ADP and a 3-D kd (ADP) synopsis, each replaying
  // UpdateStream's rows with finite aggregates as inserts. Every fourth row
  // is deleted again right after its insert, and every fifth deletes one
  // of the base rows. Then the count of refused inserts and deletes, and
  // SUM, COUNT and AVG on the workload's ranges.
  {
    struct UpdateBuild {
      const char* tag;
      size_t dims;
      PartitionStrategy strategy;
    };
    const UpdateBuild builds[] = {
        {"update_1d_eq", 1, PartitionStrategy::kEqualDepth},
        {"update_1d_adp", 1, PartitionStrategy::kAdp},
        {"update_kd3_adp", 3, PartitionStrategy::kAdp}};
    for (const UpdateBuild& build : builds) {
      const Dataset base = data.WithPredDims(build.dims);
      WorkloadOptions wl_build = wl;
      if (build.dims == 3) wl_build.template_dims = {0, 1, 2};
      const std::vector<Query> build_queries =
          RandomRangeQueries(base, wl_build);
      BuildOptions options;
      options.strategy = build.strategy;
      options.num_leaves = 16;
      options.sample_rate = 0.1;
      options.seed = 42;
      Result<Synopsis> built = BuildSynopsis(base, options);
      PASS_CHECK_MSG(built.ok(), built.status().ToString().c_str());
      Synopsis synopsis = std::move(built).value();
      size_t refused = 0;
      const std::vector<std::vector<double>> rows =
          UpdateStream(synopsis.tree());
      std::vector<double> base_row(build.dims);
      for (size_t i = 0; i < rows.size(); ++i) {
        const double agg = 0.5 + static_cast<double>(i % 9);
        refused += synopsis.Insert(rows[i], agg) ? 0 : 1;
        if (i % 4 == 3) refused += synopsis.Delete(rows[i], agg) ? 0 : 1;
        if (i % 5 == 4) {
          const size_t r = (i * 131) % base.NumRows();
          for (size_t dim = 0; dim < build.dims; ++dim) {
            base_row[dim] = base.pred(dim, r);
          }
          refused += synopsis.Delete(base_row, base.agg(r)) ? 0 : 1;
        }
      }
      std::printf("%s rows=%zu refused=%zu\n", build.tag, rows.size(),
                  refused);
      for (const AggregateType agg :
           {AggregateType::kSum, AggregateType::kCount, AggregateType::kAvg}) {
        for (size_t i = 0; i < build_queries.size(); ++i) {
          std::snprintf(label, sizeof(label), "%s%s q%zu", build.tag,
                        AggTag(agg), i);
          PrintAnswer(label, synopsis.Answer(WithAgg(build_queries[i], agg)));
        }
      }
    }
  }
  return 0;
}
