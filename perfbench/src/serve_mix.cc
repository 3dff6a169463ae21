// serve_mix: one generator thread keeps nproc/2 queries in flight through
// a QueryScheduler with nproc/2 workers onto a cached, 4-shard pass engine
// over 1-D taxi data at the paper's 0.5% sample rate. Queries are
// power-law picks from a predicate pool, each SUM, COUNT or AVG. Scans
// are tiny, so the time goes to queue handoff, cache probe, shard
// fan-out and merge.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>

#include "cache/cached_system.h"
#include "common/rng.h"
#include "core/answer_merge.h"
#include "data/generators.h"
#include "engine/query_scheduler.h"
#include "shard/sharded_synopsis.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr pass::AggregateType kAggs[] = {pass::AggregateType::kSum,
                                         pass::AggregateType::kCount,
                                         pass::AggregateType::kAvg};

/// One stream entry: a pool predicate and an aggregate.
struct Item {
  uint32_t pred = 0;
  uint32_t agg = 0;
  size_t Key() const { return pred * 3 + agg; }
};

pass::Query MakeQuery(const Item& item, const std::vector<pass::Rect>& pool) {
  pass::Query query;
  query.agg = kAggs[item.agg];
  query.predicate = pool[item.pred];
  return query;
}

/// The spans a traced answer recorded on this worker thread. The
/// scheduler runs a submission's completion callback on the thread that
/// answered it, right after the answer, so the callback collects them.
std::vector<Span>& PendingSpans() {
  thread_local std::vector<Span> pending;
  return pending;
}

/// The served engine's answer path replayed through the public entry
/// points of each layer it crosses, with a span around every call: the
/// exact-tier probe, the per-shard plan and estimate on the shard
/// executor, the merge, and the exact-tier insert. Answers are bit-
/// identical to the engine's own (the run checks it).
class TracedServing final : public pass::AqpSystem {
 public:
  TracedServing(const pass::CachedSystem& cached,
                const pass::ShardedSynopsis& sharded,
                const pass::Dataset& data, Tracer* tracer)
      : cached_(cached), sharded_(sharded), data_(data), tracer_(tracer) {}

  bool SupportsBudget() const override { return cached_.SupportsBudget(); }
  std::string Name() const override { return cached_.Name(); }
  pass::SystemCosts Costs() const override { return cached_.Costs(); }
  const pass::SemanticAnswerCache* AnswerCache() const override {
    return cached_.AnswerCache();
  }
  const pass::KernelCache* ScanKernelCache() const override {
    return cached_.ScanKernelCache();
  }

  void AddCounts(LayerCounts* counts) const {
    counts->plan_calls += plan_calls_;
    counts->nodes_visited += nodes_visited_;
    counts->partial_leaves += partial_leaves_;
    counts->estimate_calls += plan_calls_;
    counts->rows_scanned += rows_scanned_;
  }

 protected:
  pass::QueryAnswer AnswerImpl(
      const pass::Query& query,
      const pass::AnswerOptions& options) const override {
    if (!options.budget.Unlimited()) return cached_.Answer(query, options);
    std::vector<Span>& spans = PendingSpans();
    SpanTimer run(tracer_, &spans, "engine.run", 0);
    pass::SemanticAnswerCache& cache = cached_.cache();
    std::optional<pass::Rect> canonical;
    std::optional<pass::QueryAnswer> hit;
    {
      SpanTimer probe(tracer_, &spans, "cache.probe", run.id());
      cache.EnsureVersion(data_.version());
      canonical = query.predicate.Canonical();
      hit = cache.Lookup(*canonical, query.agg);
    }
    if (hit) return *hit;

    const size_t k = sharded_.NumShards();
    const bool avg = query.agg == pass::AggregateType::kAvg;
    std::vector<pass::QueryAnswer> single(k);
    std::vector<pass::MultiAnswer> multi(k);
    std::vector<std::vector<Span>> member_spans(k);
    {
      SpanTimer fanout(tracer_, &spans, "shard.fanout", run.id());
      const uint32_t fanout_id = fanout.id();
      const auto member = [&](size_t i) {
        const pass::Synopsis& shard = sharded_.shard(i);
        std::vector<Span>* out = &member_spans[i];
        SpanTimer span(tracer_, out, "shard.member", fanout_id, true);
        SpanTimer walk(tracer_, out, "plan.walk", span.id());
        pass::WorkPlan plan = shard.PlanFor(query.predicate);
        walk.End();
        ++plan_calls_;
        nodes_visited_ += plan.frontier.nodes_visited;
        partial_leaves_ += plan.frontier.partial.size();
        SpanTimer exec(tracer_, out, "estimate.exec", span.id());
        if (avg) {
          multi[i] = shard.AnswerMultiOverPlan(std::move(plan),
                                               query.predicate, {});
          rows_scanned_ += multi[i].sum.sample_rows_scanned;
        } else {
          single[i] = shard.AnswerOverPlan(std::move(plan), query, {});
          rows_scanned_ += single[i].sample_rows_scanned;
        }
      };
      if (sharded_.executor() != nullptr) {
        sharded_.executor()->ForEachShard(k, member);
      } else {
        for (size_t i = 0; i < k; ++i) member(i);
      }
    }
    pass::QueryAnswer answer;
    {
      SpanTimer merge(tracer_, &spans, "shard.merge", run.id());
      answer = avg ? pass::MergeShardMulti(multi).avg
                   : pass::MergeShardAnswers(query.agg, single);
    }
    {
      SpanTimer insert(tracer_, &spans, "cache.insert", run.id());
      cache.Insert(*canonical, query.agg, answer);
    }
    for (const std::vector<Span>& member : member_spans) {
      spans.insert(spans.end(), member.begin(), member.end());
    }
    return answer;
  }

 private:
  const pass::CachedSystem& cached_;
  const pass::ShardedSynopsis& sharded_;
  const pass::Dataset& data_;
  Tracer* tracer_;
  mutable std::atomic<uint64_t> plan_calls_{0};
  mutable std::atomic<uint64_t> nodes_visited_{0};
  mutable std::atomic<uint64_t> partial_leaves_{0};
  mutable std::atomic<uint64_t> rows_scanned_{0};
};

struct LoopResult {
  std::vector<double> latency_ms;  // sent -> answer received
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> overhead_ms;  // latency - queue - run
  std::vector<pass::QueryAnswer> answers;  // of the first `keep` positions
  double wall_s = 0.0;
};

/// Sends stream positions begin, begin + 1, ... with `window` queries in
/// flight until `count` were sent or `deadline_ns` passed, and waits for
/// all of them. `check(k, answer)` judges the answer to the k-th query
/// sent; `on_done(k, sent, done)` runs first, on the answering thread.
LoopResult RunClosedLoop(
    pass::QueryScheduler* scheduler, const pass::AqpSystem& system,
    const std::vector<Item>& stream, const std::vector<pass::Rect>& pool,
    size_t begin, size_t count, int64_t deadline_ns, size_t window,
    size_t keep,
    const std::function<bool(size_t, const pass::QueryAnswer&)>& check,
    const std::function<void(size_t, int64_t, int64_t)>& on_done,
    Report* report) {
  std::mutex mu;
  std::condition_variable slot_free;
  size_t outstanding = 0;  // guarded by mu, like everything in `out`
  LoopResult out;
  out.answers.resize(std::min(keep, count));
  const int64_t start = NowNs();
  for (size_t k = 0; k < count; ++k) {
    {
      std::unique_lock<std::mutex> lock(mu);
      slot_free.wait(lock, [&] { return outstanding < window; });
      if (NowNs() >= deadline_ns) break;
      ++outstanding;
    }
    const int64_t sent = NowNs();
    scheduler->Submit(
        system, MakeQuery(stream[(begin + k) % stream.size()], pool), {},
        [&, k, sent](pass::ScheduledAnswer result) {
          const int64_t done = NowNs();
          if (on_done) on_done(k, sent, done);
          const bool ok = result.status.ok() && check(k, result.answer);
          const double latency_ms = static_cast<double>(done - sent) * 1e-6;
          std::lock_guard<std::mutex> lock(mu);
          out.latency_ms.push_back(latency_ms);
          out.queue_ms.push_back(result.queue_ms);
          out.run_ms.push_back(result.run_ms);
          out.overhead_ms.push_back(latency_ms - result.queue_ms -
                                    result.run_ms);
          if (k < out.answers.size()) out.answers[k] = result.answer;
          report->Check(ok, "serve_mix answer " + std::to_string(k) + ": " +
                                (result.status.ok()
                                     ? std::string("wrong bits")
                                     : result.status.ToString()));
          --outstanding;
          // Notified under the lock: once outstanding reaches zero the
          // caller may return and destroy mu and slot_free.
          slot_free.notify_all();
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  slot_free.wait(lock, [&] { return outstanding == 0; });
  out.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return out;
}

}  // namespace

Report RunServeMix(const Options& options) {
  Report report;
  const pass::Dataset data =
      pass::MakeTaxiDatetime(Scaled(options, 1'000'000, 20'000), kDataSeed);
  const size_t num_preds = Scaled(options, 4000, 64);
  const std::vector<pass::Rect> pool =
      RangePredicates(data, {0}, num_preds, options.seed + 1);
  const std::vector<Truth> truths = ExactTruths(data, pool, options.threads);

  // The stream: power-law (Zipf s = 0.3) picks over a shuffled pool, each
  // with a uniformly drawn aggregate. Positions wrap.
  std::vector<Item> stream(Scaled(options, 1 << 20, 1 << 14));
  {
    pass::Rng rng(options.seed + 2);
    std::vector<uint32_t> rank_to_pred(num_preds);
    for (uint32_t p = 0; p < num_preds; ++p) rank_to_pred[p] = p;
    rng.Shuffle(&rank_to_pred);
    const pass::ZipfTable zipf(num_preds, 0.3);
    for (Item& item : stream) {
      item.pred = rank_to_pred[zipf.Sample(&rng) - 1];
      item.agg = static_cast<uint32_t>(rng.Below(3));
    }
  }

  report.Stage("inputs and truths");
  const size_t num_keys = num_preds * 3;
  pass::EngineConfig config;
  config.num_shards = 4;
  config.seed = options.seed;
  config.cache.enabled = true;
  config.cache.max_exact_entries = num_keys / 4;  // FIFO eviction runs
  // Every build answers every key once, untimed, through the engine
  // behind the cache: the answers carry the accuracy metrics
  // (deterministic per seed), and the last build's are the synchronous
  // reference every served answer must equal bit for bit.
  EndToEnd e2e;
  Accuracy accuracy;
  std::vector<pass::QueryAnswer> reference(num_keys);
  const std::unique_ptr<pass::AqpSystem> engine = BuildEngine(
      "sharded_pass", data, config, &e2e.setup_s, &report,
      [&](const pass::AqpSystem& built) {
        const auto* cached = dynamic_cast<const pass::CachedSystem*>(&built);
        if (cached == nullptr) return;  // refused below
        for (uint32_t p = 0; p < num_preds; ++p) {
          for (uint32_t a = 0; a < 3; ++a) {
            const Item item{p, a};
            pass::QueryAnswer& answer = reference[item.Key()];
            answer = cached->inner().Answer(MakeQuery(item, pool));
            report.Check(HardBoundsHold(answer, kAggs[a], truths[p]),
                         "hard bounds of serve_mix key " +
                             std::to_string(item.Key()));
            accuracy.Score(answer, truths[p].Value(kAggs[a]));
          }
        }
      });
  report.Stage("engine built");
  const auto* cached = dynamic_cast<const pass::CachedSystem*>(engine.get());
  const auto* sharded =
      cached == nullptr
          ? nullptr
          : dynamic_cast<const pass::ShardedSynopsis*>(&cached->inner());
  report.Check(sharded != nullptr && sharded->NumShards() > 1,
               "sharded_pass with the cache on is a cached ShardedSynopsis");
  if (sharded == nullptr || sharded->NumShards() <= 1) return report;
  e2e.median_rel_error = accuracy.MedianRelError();
  e2e.ci_coverage = accuracy.Coverage();
  e2e.resident_bytes = engine->Costs().resident_bytes;

  // Half of nproc in flight, on as many scheduler workers: the shard
  // executor's nproc threads run the members. With nproc in flight the
  // machine ran ~9 busy threads on nproc CPUs, and a shared host's
  // contention swung run-to-run timings about twice as much.
  const size_t window = std::max<size_t>(1, options.threads / 2);
  pass::SchedulerOptions scheduler_options;
  scheduler_options.num_threads = window;
  scheduler_options.max_in_flight = window;
  pass::QueryScheduler scheduler(scheduler_options);
  const auto matches_reference = [&](size_t begin) {
    return [&, begin](size_t k, const pass::QueryAnswer& answer) {
      return SameBits(answer, reference[stream[(begin + k) % stream.size()]
                                            .Key()]);
    };
  };
  // Cache-warming pass over a stream prefix, from an empty cache; the
  // measured phase continues the stream after it.
  const size_t warm = std::min(stream.size() / 2, num_keys * 2);
  const auto warm_cache = [&] {
    cached->cache().Flush();
    RunClosedLoop(&scheduler, *engine, stream, pool, 0, warm, INT64_MAX,
                  window, 0, matches_reference(0), nullptr, &report);
  };
  warm_cache();

  report.Stage("warmed up");
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const LoopResult measured = RunClosedLoop(
      &scheduler, *engine, stream, pool, warm, SIZE_MAX,
      NowNs() + static_cast<int64_t>(phase_s * 1e9), window, kReplayCap,
      matches_reference(warm), nullptr, &report);
  e2e.latency_ms = measured.latency_ms;
  e2e.wall_s = measured.wall_s;
  if (!options.trace) {
    AddEndToEnd(&report, e2e);
    return report;
  }

  report.Stage("measured");
  // Traced replay of the same stream prefix, from the same warmed cache.
  Tracer tracer;
  const TracedServing traced(*cached, *sharded, data, &tracer);
  const auto attach_spans = [&](size_t k, int64_t sent, int64_t done) {
    std::vector<Span> spans;
    spans.swap(PendingSpans());
    const auto run = std::find_if(spans.begin(), spans.end(), [](const Span& s) {
      return s.parent == 0;
    });
    if (run == spans.end()) return;  // counted by the check below
    Span root;
    root.id = tracer.NewId();
    root.name = "query";
    root.start_ns = sent;
    root.end_ns = done;
    Span queue = root;
    queue.id = tracer.NewId();
    queue.parent = root.id;
    queue.name = "engine.queue";
    queue.end_ns = run->start_ns;
    Span deliver = queue;
    deliver.id = tracer.NewId();
    deliver.name = "engine.deliver";
    deliver.start_ns = run->end_ns;
    deliver.end_ns = done;
    run->parent = root.id;
    spans.push_back(root);
    spans.push_back(queue);
    spans.push_back(deliver);
    tracer.Append(&spans, k);
  };
  const size_t replay = std::min(measured.latency_ms.size(), kReplayCap);
  warm_cache();
  const pass::CacheStats cache_before = cached->cache().Stats();
  const pass::KernelTierStats kernel_before = KernelStats(*engine);
  const LoopResult replayed = RunClosedLoop(
      &scheduler, traced, stream, pool, warm, replay,
      NowNs() + static_cast<int64_t>(phase_s * 1e9), window, 0,
      [&](size_t k, const pass::QueryAnswer& answer) {
        return SameBits(answer, measured.answers[k]);
      },
      attach_spans, &report);
  const pass::CacheStats cache_after = cached->cache().Stats();

  LayerCounts counts;
  counts.traced_queries = replayed.latency_ms.size();
  counts.traced_latency_ms = replayed.latency_ms;
  counts.untraced_p50_ms =
      Quantile({measured.latency_ms.begin(),
                measured.latency_ms.begin() + counts.traced_queries},
               0.5);
  counts.queue_ms = replayed.queue_ms;
  counts.run_ms = replayed.run_ms;
  counts.overhead_ms = replayed.overhead_ms;
  const auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  counts.exact_hit_ratio =
      ratio(cache_after.exact_hits - cache_before.exact_hits,
            cache_after.exact_misses - cache_before.exact_misses);
  counts.node_hit_ratio =
      ratio(cache_after.node_hits - cache_before.node_hits,
            cache_after.node_misses - cache_before.node_misses);
  counts.evictions =
      static_cast<double>(cache_after.evictions - cache_before.evictions);
  counts.fixed_share = FixedShare(kernel_before, KernelStats(*engine));
  traced.AddCounts(&counts);
  for (size_t k = 0; k < std::min(counts.traced_queries, kKernelReplayCap);
       ++k) {
    const Item item = stream[(warm + k) % stream.size()];
    uint64_t matched = 0;
    for (size_t i = 0; i < sharded->NumShards(); ++i) {
      matched += ReplayKernelScans(sharded->shard(i), pool[item.pred],
                                   &tracer, k, &counts);
    }
    report.Check(matched == reference[item.Key()].matched_sample_rows,
                 "serve_mix kernel replay matched a different row count");
  }
  const std::vector<Span> spans = tracer.Spans();
  const TraceSummary summary = Summarize(spans);
  report.Check(summary.duration_us.count("query") != 0 &&
                   summary.duration_us.at("query").size() ==
                       counts.traced_queries,
               "every traced serve_mix query has its span tree");
  AddLayers(&report, counts, summary);
  report.Check(
      options.spans_out.empty() || WriteSpans(options.spans_out, spans),
      "writing spans to " + options.spans_out);
  return report;
}

}  // namespace perfbench
