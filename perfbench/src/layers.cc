// Reporting and helpers shared by the workloads.
#include "core/estimator.h"
#include "engine/engine_registry.h"
#include "jit/kernel_cache.h"
#include "workloads.h"

namespace perfbench {

void AddEndToEnd(Report* report, const EndToEnd& e2e) {
  report->Add("setup_s", e2e.setup_s, "s");
  report->Add("query_p50_ms", Quantile(e2e.latency_ms, 0.50), "ms");
  report->Add("query_p99_ms", Quantile(e2e.latency_ms, 0.99), "ms");
  report->Add("throughput_qps",
              static_cast<double>(e2e.latency_ms.size()) / e2e.wall_s, "1/s");
  report->Add("median_rel_error", e2e.median_rel_error, "ratio");
  report->Add("ci_coverage", e2e.ci_coverage, "ratio");
  report->Add("synopsis_mb", static_cast<double>(e2e.resident_bytes) * 1e-6,
              "MB");
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double P50(const TraceSummary& trace, const char* name) {
  const auto it = trace.duration_us.find(name);
  return it == trace.duration_us.end() ? 0.0 : Quantile(it->second, 0.5);
}

double SelfPerQuery(const TraceSummary& trace, const char* layer,
                    size_t queries) {
  const auto it = trace.self_us.find(layer);
  return it == trace.self_us.end()
             ? 0.0
             : Ratio(it->second, static_cast<double>(queries));
}

}  // namespace

void AddLayers(Report* report, const LayerCounts& c,
               const TraceSummary& trace) {
  const size_t q = c.traced_queries;
  report->Add("engine.queue_ms_p50", Quantile(c.queue_ms, 0.5), "ms");
  report->Add("engine.run_ms_p50", Quantile(c.run_ms, 0.5), "ms");
  report->Add("engine.overhead_ms_p50", Quantile(c.overhead_ms, 0.5), "ms");
  report->Add("engine.self_us_per_query", SelfPerQuery(trace, "engine", q),
              "us");

  report->Add("cache.exact_hit_ratio", c.exact_hit_ratio, "ratio");
  report->Add("cache.node_hit_ratio", c.node_hit_ratio, "ratio");
  report->Add("cache.evictions", c.evictions, "count");
  report->Add("cache.probe_us_p50", P50(trace, "cache.probe"), "us");
  report->Add("cache.self_us_per_query", SelfPerQuery(trace, "cache", q),
              "us");

  report->Add("shard.member_us_p50", P50(trace, "shard.member"), "us");
  report->Add("shard.fanout_overhead_us_p50",
              Quantile(trace.fanout_overhead_us, 0.5), "us");
  report->Add("shard.merge_us_p50", P50(trace, "shard.merge"), "us");
  report->Add("shard.skew", Quantile(trace.skew, 0.5), "ratio");
  report->Add("shard.self_us_per_query", SelfPerQuery(trace, "shard", q),
              "us");

  report->Add("plan.walk_us_p50", P50(trace, "plan.walk"), "us");
  report->Add("plan.nodes_visited_mean",
              Ratio(static_cast<double>(c.nodes_visited),
                    static_cast<double>(c.plan_calls)),
              "count");
  report->Add("plan.partial_leaves_mean",
              Ratio(static_cast<double>(c.partial_leaves),
                    static_cast<double>(c.plan_calls)),
              "count");
  report->Add("plan.self_us_per_query", SelfPerQuery(trace, "plan", q), "us");

  report->Add("estimate.exec_us_p50", P50(trace, "estimate.exec"), "us");
  report->Add("estimate.rows_scanned_mean",
              Ratio(static_cast<double>(c.rows_scanned),
                    static_cast<double>(c.estimate_calls)),
              "count");
  report->Add("estimate.self_us_per_query",
              SelfPerQuery(trace, "estimate", q), "us");

  double kernel_us = 0.0;
  const auto scans = trace.duration_us.find("kernel.scan");
  if (scans != trace.duration_us.end()) {
    for (const double us : scans->second) kernel_us += us;
  }
  report->Add("kernel.scan_us_p50", P50(trace, "kernel.scan"), "us");
  report->Add("kernel.rows_per_s",
              Ratio(static_cast<double>(c.kernel_rows), kernel_us * 1e-6),
              "1/s");
  report->Add("kernel.fixed_share", c.fixed_share, "ratio");

  report->Add("ingest.insert_us_p50",
              Ratio(P50(trace, "ingest.batch"),
                    static_cast<double>(c.inserts_per_batch)),
              "us");
  report->Add("ingest.self_us_per_query", SelfPerQuery(trace, "ingest", q),
              "us");

  report->Add("trace.overhead_ratio",
              Ratio(Quantile(c.traced_latency_ms, 0.5), c.untraced_p50_ms),
              "ratio");
  report->Add("trace.glue_us_per_query", SelfPerQuery(trace, "glue", q),
              "us");
  report->Add("trace.e2e_us_per_query",
              Ratio(trace.roots_us, static_cast<double>(q)), "us");
}

std::unique_ptr<pass::AqpSystem> BuildEngine(
    const std::string& name, const pass::Dataset& data,
    pass::EngineConfig config, double* setup_s, Report* report,
    const std::function<void(const pass::AqpSystem&)>& score) {
  const uint64_t seed = config.seed;
  std::vector<double> seconds;
  std::unique_ptr<pass::AqpSystem> engine;
  for (int b = 0; b < kSetupBuilds; ++b) {
    engine.reset();  // the previous build is torn down outside the timer
    config.seed = BuildSeed(seed, b);
    const int64_t start = NowNs();
    pass::Result<std::unique_ptr<pass::AqpSystem>> built =
        pass::EngineRegistry::Global().Create(name, data, config);
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    report->Check(built.ok(),
                  "build " + name + ": " + built.status().ToString());
    if (!built.ok()) return nullptr;
    engine = std::move(built).value();
    score(*engine);
  }
  *setup_s = Quantile(seconds, 0.5);
  return engine;
}

pass::KernelTierStats KernelStats(const pass::AqpSystem& engine) {
  const pass::KernelCache* cache = engine.ScanKernelCache();
  return cache == nullptr ? pass::KernelTierStats{} : cache->Stats();
}

double FixedShare(const pass::KernelTierStats& before,
                  const pass::KernelTierStats& after) {
  const double fixed =
      static_cast<double>(after.fixed_scans - before.fixed_scans);
  const double all =
      fixed + static_cast<double>(after.generic_scans - before.generic_scans +
                                  after.jit_scans - before.jit_scans);
  return Ratio(fixed, all);
}

uint64_t ReplayKernelScans(const pass::Synopsis& synopsis,
                           const pass::Rect& predicate, Tracer* tracer,
                           uint64_t query, LayerCounts* counts) {
  const pass::WorkPlan plan = synopsis.PlanFor(predicate);
  pass::KernelCache* cache = synopsis.options().kernel_cache.get();
  std::vector<Span> spans;
  uint64_t matched = 0;
  {
    SpanTimer root(tracer, &spans, "kernel.replay", 0);
    for (const int32_t id : plan.frontier.partial) {
      const pass::PartitionTree::Node& node = synopsis.tree().node(id);
      const pass::StratifiedSample& sample =
          synopsis.leaf_sample(static_cast<size_t>(node.leaf_id));
      SpanTimer scan(tracer, &spans, "kernel.scan", root.id());
      matched += sample.Scan(predicate, node.data_bounds, cache).matched;
      scan.End();
      counts->kernel_rows += sample.size();
    }
  }
  tracer->Append(&spans, query);
  return matched;
}

}  // namespace perfbench
