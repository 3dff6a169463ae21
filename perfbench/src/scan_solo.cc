// scan_solo: one client making synchronous fused queries against an
// unsharded pass engine over 3-D taxi data (1024 leaves, 5% sample, the
// registry's default kernel tiers, no cache). Nearly all of a query's
// time is the leaf-sample scan; scheduler, cache and shards are bypassed.
#include "core/synopsis.h"
#include "data/generators.h"
#include "workloads.h"

namespace perfbench {

Report RunScanSolo(const Options& options) {
  Report report;
  const pass::Dataset data =
      pass::MakeTaxiLike(Scaled(options, 2'000'000, 20'000), kDataSeed)
          .WithPredDims(3);
  const std::vector<pass::Rect> pool = RangePredicates(
      data, {0, 1, 2}, Scaled(options, 4096, 64), options.seed + 1);
  const std::vector<Truth> truths = ExactTruths(data, pool, options.threads);

  report.Stage("inputs and truths");
  pass::EngineConfig config;
  config.partitions = 1024;
  config.sample_rate = 0.05;
  config.seed = options.seed;
  // Every build answers the pool once, untimed: the answers carry the
  // accuracy metrics (deterministic per seed), and the last build's are
  // the reference every later answer must reproduce bit for bit.
  EndToEnd e2e;
  Accuracy accuracy;
  std::vector<pass::MultiAnswer> reference(pool.size());
  const std::unique_ptr<pass::AqpSystem> engine = BuildEngine(
      "pass", data, config, &e2e.setup_s, &report,
      [&](const pass::AqpSystem& built) {
        for (size_t i = 0; i < pool.size(); ++i) {
          reference[i] = built.AnswerMulti(pool[i]);
          report.Check(HardBoundsHold(reference[i], truths[i]),
                       "hard bounds of scan_solo query " + std::to_string(i));
          accuracy.Score(reference[i].sum, truths[i].sum);
          accuracy.Score(reference[i].count,
                         static_cast<double>(truths[i].count));
          accuracy.Score(reference[i].avg,
                         truths[i].Value(pass::AggregateType::kAvg));
        }
      });
  report.Stage("engine built");
  const auto* synopsis = dynamic_cast<const pass::Synopsis*>(engine.get());
  report.Check(synopsis != nullptr, "the pass engine is a Synopsis");
  if (synopsis == nullptr) return report;
  e2e.median_rel_error = accuracy.MedianRelError();
  e2e.ci_coverage = accuracy.Coverage();
  e2e.resident_bytes = engine->Costs().resident_bytes;

  // Measured phase: the pool, cycled, for the run's seconds (half of them
  // when the traced replay follows).
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(phase_s * 1e9);
  int64_t now = start;
  for (uint64_t n = 0; now < deadline; ++n) {
    const size_t i = n % pool.size();
    const int64_t sent = NowNs();
    const pass::MultiAnswer answer = engine->AnswerMulti(pool[i]);
    now = NowNs();
    e2e.latency_ms.push_back(static_cast<double>(now - sent) * 1e-6);
    report.Check(SameBits(answer, reference[i]),
                 "scan_solo answer differs from its warm-up answer");
  }
  e2e.wall_s = static_cast<double>(now - start) * 1e-9;
  if (!options.trace) {
    AddEndToEnd(&report, e2e);
    return report;
  }

  report.Stage("measured");
  // Traced replay of the same stream prefix through the layer entry
  // points: the MCF walk, then the estimator over that plan.
  Tracer tracer;
  LayerCounts counts;
  const size_t replay = std::min(e2e.latency_ms.size(), kReplayCap);
  counts.untraced_p50_ms = Quantile(
      {e2e.latency_ms.begin(), e2e.latency_ms.begin() + replay}, 0.5);
  const pass::KernelTierStats before = KernelStats(*engine);
  const int64_t replay_deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
  for (size_t n = 0; n < replay && NowNs() < replay_deadline; ++n) {
    const size_t i = n % pool.size();
    std::vector<Span> spans;
    pass::MultiAnswer answer;
    SpanTimer root(&tracer, &spans, "query", 0);
    {
      SpanTimer walk(&tracer, &spans, "plan.walk", root.id());
      pass::WorkPlan plan = synopsis->PlanFor(pool[i]);
      walk.End();
      counts.nodes_visited += plan.frontier.nodes_visited;
      counts.partial_leaves += plan.frontier.partial.size();
      SpanTimer exec(&tracer, &spans, "estimate.exec", root.id());
      answer = synopsis->AnswerMultiOverPlan(std::move(plan), pool[i], {});
    }
    counts.traced_latency_ms.push_back(
        static_cast<double>(root.End() - root.start_ns()) * 1e-6);
    tracer.Append(&spans, n);
    ++counts.plan_calls;
    ++counts.estimate_calls;
    counts.rows_scanned += answer.sum.sample_rows_scanned;
    report.Check(SameBits(answer, reference[i]),
                 "scan_solo traced replay differs from the untraced answer");
  }
  counts.traced_queries = counts.traced_latency_ms.size();
  counts.fixed_share = FixedShare(before, KernelStats(*engine));
  for (size_t n = 0; n < std::min(counts.traced_queries, kKernelReplayCap);
       ++n) {
    const size_t i = n % pool.size();
    report.Check(ReplayKernelScans(*synopsis, pool[i], &tracer, n, &counts) ==
                     reference[i].sum.matched_sample_rows,
                 "scan_solo kernel replay matched a different row count");
  }
  const std::vector<Span> spans = tracer.Spans();
  AddLayers(&report, counts, Summarize(spans));
  report.Check(options.spans_out.empty() || WriteSpans(options.spans_out, spans),
               "writing spans to " + options.spans_out);
  return report;
}

}  // namespace perfbench
