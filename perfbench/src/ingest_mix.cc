// ingest_mix: one thread running Section 4.5's reservoir path. A synopsis
// is built with BuildSynopsis over 1-D taxi data (64 leaves, 1% sample);
// the stream then makes 64 Synopsis::Insert calls before each fused
// query. The write workload beside the reads: storing more per node or
// leaf to speed up reads shows here as slower inserts.
#include <optional>

#include "data/generators.h"
#include "partition/builder.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kInsertsPerQuery = 64;
/// Every this many cycles, an untimed check against the shadow data. Odd,
/// so the checked cycles reach every predicate of the power-of-two pool.
constexpr size_t kCheckEvery = 17;
/// The accuracy metrics come from this many cycles of the stream, replayed
/// untimed on every build, so they do not depend on the run's pace.
constexpr size_t kAccuracyCycles = 8192;

/// The shadow dataset is the base data plus the rows inserted so far: the
/// insert pool `full` times over, then the pool's first `partial` rows.
/// Returns its exact truth for `predicate`, given the predicate's truths
/// over the base data and over the whole pool.
Truth ShadowTruth(const pass::Dataset& inserts, const pass::Rect& predicate,
                  const Truth& base, const Truth& pool, uint64_t inserted) {
  const uint64_t full = inserted / inserts.NumRows();
  const Truth partial = ScanTruth(inserts, predicate, 0,
                                  static_cast<size_t>(inserted %
                                                      inserts.NumRows()));
  Truth out;
  out.sum = base.sum + static_cast<double>(full) * pool.sum + partial.sum;
  out.count = base.count + full * pool.count + partial.count;
  return out;
}

}  // namespace

Report RunIngestMix(const Options& options) {
  Report report;
  const pass::Dataset data =
      pass::MakeTaxiDatetime(Scaled(options, 1'000'000, 20'000), kDataSeed);
  // The insert stream: fresh rows of the same distribution, cycled.
  const pass::Dataset inserts =
      pass::MakeTaxiDatetime(Scaled(options, 1 << 16, 1 << 10),
                             options.seed + 3);
  std::vector<std::vector<double>> insert_preds(inserts.NumRows());
  for (size_t r = 0; r < inserts.NumRows(); ++r) {
    insert_preds[r] = {inserts.pred(0, r)};
  }
  const std::vector<pass::Rect> pool =
      RangePredicates(data, {0}, Scaled(options, 4096, 64), options.seed + 1);
  const std::vector<Truth> base_truths =
      ExactTruths(data, pool, options.threads);
  const std::vector<Truth> pool_truths =
      ExactTruths(inserts, pool, options.threads);

  report.Stage("inputs and truths");
  // One cycle of the stream: the next 64 inserts, then the next query.
  const auto insert_batch = [&](pass::Synopsis* synopsis, size_t* row) {
    bool inserted = true;
    for (size_t j = 0; j < kInsertsPerQuery; ++j) {
      inserted &= synopsis->Insert(insert_preds[*row], inserts.agg(*row));
      *row = *row + 1 == inserts.NumRows() ? 0 : *row + 1;
    }
    return inserted;
  };
  // Checks the answer of `cycle` against the shadow data, and scores it
  // into `accuracy` unless that is null.
  const auto check = [&](size_t cycle, const pass::MultiAnswer& answer,
                         Accuracy* accuracy) {
    const size_t i = cycle % pool.size();
    const Truth truth =
        ShadowTruth(inserts, pool[i], base_truths[i], pool_truths[i],
                    (cycle + 1) * kInsertsPerQuery);
    report.Check(HardBoundsHold(answer, truth),
                 "ingest_mix hard bounds at cycle " + std::to_string(cycle));
    if (accuracy == nullptr) return;
    accuracy->Score(answer.sum, truth.sum);
    accuracy->Score(answer.count, static_cast<double>(truth.count));
    accuracy->Score(answer.avg, truth.Value(pass::AggregateType::kAvg));
  };

  pass::BuildOptions build;
  build.num_leaves = 64;
  build.sample_rate = 0.01;
  EndToEnd e2e;
  Accuracy accuracy;
  std::vector<double> build_s;
  std::optional<pass::Synopsis> built;
  for (int b = 0; b < kSetupBuilds; ++b) {
    built.reset();
    build.seed = BuildSeed(options.seed, b);
    const int64_t start = NowNs();
    pass::Result<pass::Synopsis> result = pass::BuildSynopsis(data, build);
    build_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    report.Check(result.ok(), "BuildSynopsis: " + result.status().ToString());
    if (!result.ok()) return report;
    built.emplace(std::move(result).value());
    // Untimed, on a copy: the first kAccuracyCycles cycles of the stream,
    // every kCheckEvery-th answer checked and scored. Queries leave the
    // synopsis unchanged, so only the checked ones are asked.
    pass::Synopsis replay = *built;
    size_t row = 0;
    for (size_t cycle = 0; cycle < kAccuracyCycles; ++cycle) {
      report.Check(insert_batch(&replay, &row), "ingest_mix insert refused");
      if (cycle % kCheckEvery == 0) {
        check(cycle, replay.AnswerMulti(pool[cycle % pool.size()]),
              &accuracy);
      }
    }
  }
  e2e.setup_s = Quantile(build_s, 0.5);
  e2e.median_rel_error = accuracy.MedianRelError();
  e2e.ci_coverage = accuracy.Coverage();

  report.Stage("engine built");
  // Warm-up, untimed and read-only: every pool predicate once.
  for (const pass::Rect& predicate : pool) built->AnswerMulti(predicate);

  report.Stage("warmed up");
  // The timed stream. Every kCheckEvery-th answer is checked, untimed,
  // against the shadow data.
  pass::Synopsis live = *built;
  std::vector<pass::MultiAnswer> answers;  // of the first kReplayCap cycles
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(phase_s * 1e9);
  int64_t paused_ns = 0;
  size_t row = 0;
  for (size_t cycle = 0; NowNs() < deadline; ++cycle) {
    const bool inserted = insert_batch(&live, &row);
    const size_t i = cycle % pool.size();
    const int64_t sent = NowNs();
    const pass::MultiAnswer answer = live.AnswerMulti(pool[i]);
    const int64_t received = NowNs();
    e2e.latency_ms.push_back(static_cast<double>(received - sent) * 1e-6);
    report.Check(inserted, "ingest_mix insert refused");
    if (answers.size() < kReplayCap) answers.push_back(answer);
    if (cycle % kCheckEvery == 0) {
      check(cycle, answer, nullptr);
      paused_ns += NowNs() - received;
    }
  }
  e2e.wall_s = static_cast<double>(NowNs() - start - paused_ns) * 1e-9;
  e2e.resident_bytes = live.Costs().resident_bytes;
  if (!options.trace) {
    AddEndToEnd(&report, e2e);
    return report;
  }

  report.Stage("measured");
  // Traced replay of the same stream prefix from the same built synopsis:
  // each insert batch is one root span, each query a root with the walk
  // and the estimator under it.
  Tracer tracer;
  LayerCounts counts;
  counts.inserts_per_batch = kInsertsPerQuery;
  live = *built;
  row = 0;
  const pass::KernelTierStats before = KernelStats(live);
  const int64_t replay_deadline = NowNs() + static_cast<int64_t>(phase_s * 1e9);
  for (size_t cycle = 0; cycle < answers.size() && NowNs() < replay_deadline;
       ++cycle) {
    std::vector<Span> spans;
    {
      SpanTimer batch(&tracer, &spans, "ingest.batch", 0);
      insert_batch(&live, &row);
    }
    const size_t i = cycle % pool.size();
    pass::MultiAnswer answer;
    SpanTimer root(&tracer, &spans, "query", 0);
    {
      SpanTimer walk(&tracer, &spans, "plan.walk", root.id());
      pass::WorkPlan plan = live.PlanFor(pool[i]);
      walk.End();
      counts.nodes_visited += plan.frontier.nodes_visited;
      counts.partial_leaves += plan.frontier.partial.size();
      SpanTimer exec(&tracer, &spans, "estimate.exec", root.id());
      answer = live.AnswerMultiOverPlan(std::move(plan), pool[i], {});
    }
    counts.traced_latency_ms.push_back(
        static_cast<double>(root.End() - root.start_ns()) * 1e-6);
    tracer.Append(&spans, cycle);
    ++counts.plan_calls;
    ++counts.estimate_calls;
    counts.rows_scanned += answer.sum.sample_rows_scanned;
    report.Check(SameBits(answer, answers[cycle]),
                 "ingest_mix traced replay differs from the untraced answer");
    // The synopsis changes with every batch, so its leaf scans are
    // replayed now, between cycles, outside the query's span tree.
    if (cycle < kKernelReplayCap) {
      report.Check(ReplayKernelScans(live, pool[i], &tracer, cycle, &counts) ==
                       answer.sum.matched_sample_rows,
                   "ingest_mix kernel replay matched a different row count");
    }
  }
  counts.traced_queries = counts.traced_latency_ms.size();
  counts.untraced_p50_ms =
      Quantile({e2e.latency_ms.begin(),
                e2e.latency_ms.begin() + counts.traced_queries},
               0.5);
  counts.fixed_share = FixedShare(before, KernelStats(live));
  const std::vector<Span> spans = tracer.Spans();
  AddLayers(&report, counts, Summarize(spans));
  report.Check(
      options.spans_out.empty() || WriteSpans(options.spans_out, spans),
      "writing spans to " + options.spans_out);
  return report;
}

}  // namespace perfbench
